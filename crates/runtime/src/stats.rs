//! Worker counters, latency statistics, and the failure taxonomy.
//!
//! One [`StatsRegistry`] per executing worker (the service's, each fleet
//! shard's) counts engine runs per launch and request outcomes on each
//! *winning* delivery only, so a losing hedge duplicate moves no outcome
//! counter. Hot-path counters are atomics; the histograms, breakdown
//! taxonomy and wait/latency samples sit behind one mutex.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use crate::dispatcher::BatchReport;
use crate::request::{SolveError, SolveMethod, SolveOutcome};
use crate::reservoir::{percentile_us, Reservoir};

/// Number of power-of-two histogram buckets: bucket `k` counts batches
/// of size in `[2^k, 2^(k+1))`, so bucket 0 is size 1, bucket 10 covers
/// 1024..2047, and everything larger lands in the last bucket.
const HIST_BUCKETS: usize = 12;

/// Escalation-ladder depth buckets: requests whose dispatch attempted
/// 1, 2, or 3 rungs.
pub const RUNG_BUCKETS: usize = 3;

#[derive(Debug, Default)]
struct Sampled {
    batch_size_hist: [u64; HIST_BUCKETS],
    /// Wait samples in microseconds (submission to dispatch), one per
    /// delivered engine outcome. Bounded: a fixed-capacity reservoir
    /// (Algorithm R, seeded), so a long-running worker never grows the
    /// registry without limit while percentiles stay exact under the cap
    /// and representative above it.
    wait_samples_us: Reservoir,
    /// Submission-to-outcome latency samples, same population.
    latency_samples_us: Reservoir,
    iterations_total: u64,
    iterations_max: u64,
    /// Breakdown tag → occurrence count (terminal breakdowns only).
    breakdowns: BTreeMap<&'static str, u64>,
    /// `rung_hist[k]` counts requests whose dispatch attempted `k+1`
    /// ladder rungs.
    rung_hist: [u64; RUNG_BUCKETS],
    /// Name of the configured rung-1 solver variant ("" until set).
    solver: &'static str,
}

/// The events a front end or the executor counts one at a time;
/// launches and request outcomes have their own entry points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tally {
    /// A request admitted to the queue.
    Accepted,
    /// A submission refused: queue full.
    RejectedQueueFull,
    /// A submission refused: wrong vector length.
    RejectedShape,
    /// A submission refused: unreachable tolerance.
    RejectedTolerance,
    /// A submission refused by the gate: non-finite payload.
    RejectedNonfinite,
    /// A submission refused by the gate: unusable diagonal.
    RejectedZeroDiag,
    /// A submission shed: circuit open.
    RejectedCircuitOpen,
    /// The breaker tripped open.
    BreakerTrip,
    /// The watchdog flagged a dispatch.
    WatchdogStall,
    /// The supervisor respawned a panicked worker loop.
    WorkerRespawn,
    /// A system shed at dispatch: its deadline had passed.
    Shed,
    /// A failed chunk re-queued on a peer.
    Retry,
    /// A hedge duplicate launched against a peer's flight.
    HedgeFired,
    /// A hedge duplicate that delivered at least one outcome.
    HedgeWon,
    /// A chunk stolen from a peer's queue.
    StealIn,
    /// A chunk a peer stole from this worker's queue.
    StealOut,
}

const TALLIES: usize = Tally::StealOut as usize + 1;

/// Counter registry of one worker, read via [`StatsRegistry::snapshot`].
#[derive(Debug, Default)]
pub struct StatsRegistry {
    tallies: [AtomicU64; TALLIES],
    converged_iterative: AtomicU64,
    converged_gmres: AtomicU64,
    converged_fallback: AtomicU64,
    failed_not_converged: AtomicU64,
    failed_deadline: AtomicU64,
    failed_device: AtomicU64,
    failed_panic: AtomicU64,
    batches_formed: AtomicU64,
    sim_time_ns: AtomicU64,
    sim_syncs_total: AtomicU64,
    sim_reductions_total: AtomicU64,
    sampled: Mutex<Sampled>,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl StatsRegistry {
    /// Fresh registry, all zeros.
    pub fn new() -> StatsRegistry {
        StatsRegistry::default()
    }

    fn sampled(&self) -> MutexGuard<'_, Sampled> {
        self.sampled.lock().expect("stats lock poisoned")
    }

    /// Count `n` events of kind `tally`.
    pub fn add(&self, tally: Tally, n: u64) {
        self.tallies[tally as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Record the configured rung-1 solver variant (once, at startup).
    pub(crate) fn set_solver(&self, name: &'static str) {
        self.sampled().solver = name;
    }

    /// Record one engine run of `size` systems and, when the engine
    /// returned one, the simulated cost of its report.
    pub(crate) fn on_launch(&self, size: usize, report: Option<&BatchReport>) {
        bump(&self.batches_formed);
        if let Some(r) = report {
            // Whole nanoseconds: atomics hold no f64.
            let ns = (r.sim_time_s * 1e9).max(0.0) as u64;
            self.sim_time_ns.fetch_add(ns, Ordering::Relaxed);
            self.sim_syncs_total.fetch_add(r.syncs, Ordering::Relaxed);
            self.sim_reductions_total
                .fetch_add(r.reductions, Ordering::Relaxed);
        }
        let mut s = self.sampled();
        let bucket = usize::try_from(size.max(1).ilog2())
            .unwrap()
            .min(HIST_BUCKETS - 1);
        s.batch_size_hist[bucket] += 1;
    }

    /// Record one winning delivery by the outcome its caller receives.
    /// `sample` is its (wait, latency) pair when an engine run produced
    /// the outcome.
    pub(crate) fn on_outcome(&self, outcome: &SolveOutcome, sample: Option<(Duration, Duration)>) {
        let (iterations, rungs, breakdown) = match outcome {
            Ok(sol) => {
                bump(match sol.method {
                    SolveMethod::Bicgstab => &self.converged_iterative,
                    SolveMethod::Gmres => &self.converged_gmres,
                    SolveMethod::BandedLuFallback => &self.converged_fallback,
                });
                (sol.iterations, sol.rungs.len(), None)
            }
            Err(SolveError::NotConverged {
                iterations,
                breakdown,
                rungs,
                ..
            }) => {
                bump(&self.failed_not_converged);
                (*iterations, rungs.len(), *breakdown)
            }
            Err(e) => {
                bump(match e {
                    SolveError::DeadlineExceeded { .. } => &self.failed_deadline,
                    SolveError::WorkerPanic { .. } => &self.failed_panic,
                    _ => &self.failed_device,
                });
                return;
            }
        };
        let mut s = self.sampled();
        if let Some((wait, latency)) = sample {
            s.wait_samples_us.push(wait.as_micros() as u64);
            s.latency_samples_us.push(latency.as_micros() as u64);
        }
        s.iterations_total += u64::from(iterations);
        s.iterations_max = s.iterations_max.max(u64::from(iterations));
        if let Some(tag) = breakdown {
            *s.breakdowns.entry(tag).or_insert(0) += 1;
        }
        if rungs > 0 {
            s.rung_hist[rungs.min(RUNG_BUCKETS) - 1] += 1;
        }
    }

    /// The raw (wait, latency) µs samples, unsorted, for merging across
    /// workers.
    pub fn samples_us(&self) -> (Vec<u64>, Vec<u64>) {
        let s = self.sampled();
        (
            s.wait_samples_us.samples().to_vec(),
            s.latency_samples_us.samples().to_vec(),
        )
    }

    /// 99th-percentile submission-to-outcome latency: the fleet's hedge
    /// delay is a multiple of it.
    pub fn latency_p99(&self) -> Duration {
        let mut samples = self.sampled().latency_samples_us.samples().to_vec();
        samples.sort_unstable();
        Duration::from_micros(percentile_us(&samples, 0.99))
    }

    /// Consistent point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let s = self.sampled();
        let sorted = |r: &Reservoir| {
            let mut v = r.samples().to_vec();
            v.sort_unstable();
            v
        };
        let (waits, latencies) = (sorted(&s.wait_samples_us), sorted(&s.latency_samples_us));
        let pct = |v: &[u64], p: f64| Duration::from_micros(percentile_us(v, p));
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let tally = |t: Tally| load(&self.tallies[t as usize]);
        StatsSnapshot {
            accepted: tally(Tally::Accepted),
            rejected_queue_full: tally(Tally::RejectedQueueFull),
            rejected_shape: tally(Tally::RejectedShape),
            rejected_tolerance: tally(Tally::RejectedTolerance),
            rejected_nonfinite: tally(Tally::RejectedNonfinite),
            rejected_zero_diag: tally(Tally::RejectedZeroDiag),
            rejected_circuit_open: tally(Tally::RejectedCircuitOpen),
            converged_iterative: load(&self.converged_iterative),
            converged_gmres: load(&self.converged_gmres),
            converged_fallback: load(&self.converged_fallback),
            failed_not_converged: load(&self.failed_not_converged),
            failed_deadline: load(&self.failed_deadline),
            failed_device: load(&self.failed_device),
            failed_panic: load(&self.failed_panic),
            batches_formed: load(&self.batches_formed),
            breaker_trips: tally(Tally::BreakerTrip),
            watchdog_stalls: tally(Tally::WatchdogStall),
            worker_respawns: tally(Tally::WorkerRespawn),
            batch_size_hist: s.batch_size_hist,
            rung_hist: s.rung_hist,
            breakdowns: s.breakdowns.clone(),
            queue_wait_p50: pct(&waits, 0.50),
            queue_wait_p99: pct(&waits, 0.99),
            latency_p50: pct(&latencies, 0.50),
            latency_p99: pct(&latencies, 0.99),
            solver_iterations_total: s.iterations_total,
            solver_iterations_max: s.iterations_max,
            sim_time_total_s: load(&self.sim_time_ns) as f64 / 1e9,
            sim_syncs_total: load(&self.sim_syncs_total),
            sim_reductions_total: load(&self.sim_reductions_total),
            shed: tally(Tally::Shed),
            retries: tally(Tally::Retry),
            hedges_fired: tally(Tally::HedgeFired),
            hedges_won: tally(Tally::HedgeWon),
            steals_in: tally(Tally::StealIn),
            steals_out: tally(Tally::StealOut),
            solver: s.solver,
        }
    }
}

/// Point-in-time copy of the service counters.
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests rejected with [`crate::SubmitError::QueueFull`].
    pub rejected_queue_full: u64,
    /// Requests rejected with [`crate::SubmitError::ShapeMismatch`].
    pub rejected_shape: u64,
    /// Requests rejected with [`crate::SubmitError::InvalidTolerance`].
    pub rejected_tolerance: u64,
    /// Requests rejected by the admission gate for non-finite payloads.
    pub rejected_nonfinite: u64,
    /// Requests rejected by the admission gate for unusable diagonals.
    pub rejected_zero_diag: u64,
    /// Requests shed with [`crate::SubmitError::CircuitOpen`].
    pub rejected_circuit_open: u64,
    /// Requests converged by BiCGSTAB (rung 1).
    pub converged_iterative: u64,
    /// Requests converged by GMRES (rung 2).
    pub converged_gmres: u64,
    /// Requests converged by the banded-LU fallback (rung 3).
    pub converged_fallback: u64,
    /// Requests that failed to converge on every rung.
    pub failed_not_converged: u64,
    /// Requests abandoned past their queue-wait deadline.
    pub failed_deadline: u64,
    /// Requests failed by a device/launch failure.
    pub failed_device: u64,
    /// Requests failed by a worker panic attributed to them.
    pub failed_panic: u64,
    /// Engine launches: every fused batch dispatched, a failed one and
    /// each singleton of its blame isolation included.
    pub batches_formed: u64,
    /// Circuit-breaker trips (closed/half-open → open transitions).
    pub breaker_trips: u64,
    /// Dispatches flagged by the watchdog as exceeding the time budget.
    pub watchdog_stalls: u64,
    /// Times the supervisor respawned a panicked worker.
    pub worker_respawns: u64,
    /// Power-of-two batch-size histogram; bucket `k` counts batches of
    /// size `[2^k, 2^(k+1))`.
    pub batch_size_hist: [u64; HIST_BUCKETS],
    /// `rung_hist[k]` counts requests whose dispatch attempted `k+1`
    /// escalation rungs.
    pub rung_hist: [u64; RUNG_BUCKETS],
    /// Terminal breakdown tag → occurrence count.
    pub breakdowns: BTreeMap<&'static str, u64>,
    /// Median wait (submission to dispatch) across delivered engine
    /// outcomes.
    pub queue_wait_p50: Duration,
    /// 99th-percentile wait across delivered engine outcomes.
    pub queue_wait_p99: Duration,
    /// Median submission-to-outcome latency across dispatched requests.
    pub latency_p50: Duration,
    /// 99th-percentile submission-to-outcome latency.
    pub latency_p99: Duration,
    /// Total iterative-solver iterations spent.
    pub solver_iterations_total: u64,
    /// Worst single-system iteration count.
    pub solver_iterations_max: u64,
    /// Total simulated kernel time across dispatched batches, seconds.
    pub sim_time_total_s: f64,
    /// Total simulated synchronization points across dispatched batches.
    pub sim_syncs_total: u64,
    /// Total simulated reduction trees (exposed + hidden) across
    /// dispatched batches.
    pub sim_reductions_total: u64,
    /// Requests shed at dispatch because their deadline budget was
    /// spent (also counted in `failed_deadline`).
    pub shed: u64,
    /// Chunks re-queued on a peer after a retryable failure (fleet
    /// workers only).
    pub retries: u64,
    /// Hedge duplicates launched against a peer's flight (fleet only).
    pub hedges_fired: u64,
    /// Hedge duplicates that delivered at least one outcome (fleet only).
    pub hedges_won: u64,
    /// Chunks stolen from a peer's queue (fleet only).
    pub steals_in: u64,
    /// Chunks peers stole from this worker's queue (fleet only).
    pub steals_out: u64,
    /// Configured rung-1 solver variant ("" until the service sets it).
    pub solver: &'static str,
}

impl StatsSnapshot {
    /// Requests that reached any terminal outcome.
    pub fn completed(&self) -> u64 {
        self.converged_iterative
            + self.converged_gmres
            + self.converged_fallback
            + self.failed_not_converged
            + self.failed_deadline
            + self.failed_device
            + self.failed_panic
    }

    /// Requests rejected before entering the queue, all causes.
    pub fn rejected_total(&self) -> u64 {
        self.rejected_queue_full
            + self.rejected_shape
            + self.rejected_tolerance
            + self.rejected_nonfinite
            + self.rejected_zero_diag
            + self.rejected_circuit_open
    }

    /// Mean batch size across dispatched batches.
    pub fn mean_batch_size(&self) -> f64 {
        let dispatched = self.converged_iterative
            + self.converged_gmres
            + self.converged_fallback
            + self.failed_not_converged;
        if self.batches_formed == 0 {
            0.0
        } else {
            dispatched as f64 / self.batches_formed as f64
        }
    }

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("solve service stats\n");
        out.push_str(&format!(
            "  requests : {} accepted, {} rejected (queue full), {} rejected (shape), \
             {} rejected (tolerance)\n",
            self.accepted, self.rejected_queue_full, self.rejected_shape, self.rejected_tolerance
        ));
        out.push_str(&format!(
            "  admission: {} rejected (non-finite), {} rejected (zero diagonal), \
             {} shed (circuit open)\n",
            self.rejected_nonfinite, self.rejected_zero_diag, self.rejected_circuit_open
        ));
        out.push_str(&format!(
            "  outcomes : {} converged (bicgstab), {} converged (gmres), \
             {} converged (LU fallback), {} not converged, {} deadline exceeded\n",
            self.converged_iterative,
            self.converged_gmres,
            self.converged_fallback,
            self.failed_not_converged,
            self.failed_deadline
        ));
        out.push_str(&format!(
            "  faults   : {} device failures, {} worker panics, {} worker respawns, \
             {} breaker trips, {} watchdog stalls\n",
            self.failed_device,
            self.failed_panic,
            self.worker_respawns,
            self.breaker_trips,
            self.watchdog_stalls
        ));
        if !self.breakdowns.is_empty() {
            out.push_str("  breakdowns by kind:\n");
            for (tag, count) in &self.breakdowns {
                out.push_str(&format!("    [{tag:>14}] {count}\n"));
            }
        }
        out.push_str(&format!(
            "  batching : {} batches, mean size {:.1}\n",
            self.batches_formed,
            self.mean_batch_size()
        ));
        out.push_str("  batch-size histogram:\n");
        for (k, &count) in self.batch_size_hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let lo = 1u64 << k;
            let hi = (1u64 << (k + 1)) - 1;
            let label = if k == self.batch_size_hist.len() - 1 {
                format!("{lo}+")
            } else if lo == hi {
                format!("{lo}")
            } else {
                format!("{lo}-{hi}")
            };
            out.push_str(&format!("    [{label:>7}] {count}\n"));
        }
        if self.rung_hist.iter().any(|&c| c > 0) {
            out.push_str("  escalation rungs attempted:\n");
            for (k, &count) in self.rung_hist.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                out.push_str(&format!("    [{} rung(s)] {count}\n", k + 1));
            }
        }
        out.push_str(&format!(
            "  queue wait: p50 {:.3} ms, p99 {:.3} ms\n",
            self.queue_wait_p50.as_secs_f64() * 1e3,
            self.queue_wait_p99.as_secs_f64() * 1e3
        ));
        out.push_str(&format!(
            "  solver   : {} iterations total, {} max per system, {:.3} ms simulated kernel time\n",
            self.solver_iterations_total,
            self.solver_iterations_max,
            self.sim_time_total_s * 1e3
        ));
        if !self.solver.is_empty() {
            out.push_str(&format!(
                "  variant  : {} ({} syncs, {} reductions simulated)\n",
                self.solver, self.sim_syncs_total, self.sim_reductions_total
            ));
        }
        out
    }
}

/// Outcome and report builders for the registry's unit tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;
    use crate::dispatcher::SimSplit;
    use crate::request::{RungAttempt, Solution};

    fn rungs(
        method: SolveMethod,
        count: usize,
        breakdown: Option<&'static str>,
    ) -> Vec<RungAttempt> {
        let rung = RungAttempt {
            method,
            iterations: 1,
            residual: 0.0,
            converged: breakdown.is_none(),
            breakdown,
        };
        vec![rung; count]
    }

    /// A converged outcome after `iterations` on `count` ladder rungs.
    pub(crate) fn solved(method: SolveMethod, iterations: u32, count: usize) -> SolveOutcome {
        Ok(Solution {
            x: Vec::new(),
            iterations,
            residual: 0.0,
            method,
            batch_size: 1,
            queue_wait: Duration::ZERO,
            rungs: rungs(method, count, None),
        })
    }

    /// An outcome that ended all three rungs with `breakdown`.
    pub(crate) fn broke_down(breakdown: &'static str, iterations: u32) -> SolveOutcome {
        let method = SolveMethod::BandedLuFallback;
        Err(SolveError::NotConverged {
            iterations,
            residual: f64::NAN,
            breakdown: Some(breakdown),
            rungs: rungs(method, RUNG_BUCKETS, Some(breakdown)),
        })
    }

    /// A (wait, latency) sample of `us` µs of wait.
    pub(crate) fn waited(us: u64) -> Option<(Duration, Duration)> {
        Some((Duration::from_micros(us), Duration::from_micros(2 * us)))
    }

    pub(crate) fn report(sim_time_s: f64) -> BatchReport {
        BatchReport {
            outcomes: Vec::new(),
            sim_time_s,
            syncs: 5,
            reductions: 3,
            solver: "bicgstab",
            split: SimSplit::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = StatsRegistry::new();
        r.add(Tally::Accepted, 1);
        r.add(Tally::Accepted, 1);
        r.add(Tally::RejectedQueueFull, 1);
        r.on_outcome(
            &Err(SolveError::DeadlineExceeded {
                waited: Duration::from_millis(2),
                deadline: Duration::from_millis(1),
            }),
            None,
        );
        r.on_launch(2, Some(&report(1.5e-4)));
        r.on_outcome(&solved(SolveMethod::Bicgstab, 10, 1), waited(100));
        r.on_outcome(&solved(SolveMethod::Bicgstab, 20, 1), waited(300));
        let s = r.snapshot();
        assert_eq!(s.accepted, 2);
        assert_eq!(s.rejected_queue_full, 1);
        assert_eq!(s.failed_deadline, 1);
        assert_eq!(s.batches_formed, 1);
        assert_eq!(s.converged_iterative, 2);
        assert_eq!(s.solver_iterations_total, 30);
        assert_eq!(s.solver_iterations_max, 20);
        assert_eq!(s.batch_size_hist[1], 1); // size 2 → bucket 1
        assert_eq!(s.rung_hist, [2, 0, 0]);
        assert!((s.sim_time_total_s - 1.5e-4).abs() < 1e-12);
        assert_eq!((s.sim_syncs_total, s.sim_reductions_total), (5, 3));
        assert_eq!(s.latency_p99, Duration::from_micros(600));
        assert_eq!(s.completed(), 3);
    }

    #[test]
    fn percentiles_from_samples() {
        let r = StatsRegistry::new();
        r.on_launch(100, None);
        for us in 1..=100 {
            r.on_outcome(&solved(SolveMethod::Bicgstab, 1, 1), waited(us));
        }
        let s = r.snapshot();
        // Index round((100-1)*0.5) = 50 → the 51 µs sample.
        assert_eq!(s.queue_wait_p50, Duration::from_micros(51));
        assert_eq!(s.queue_wait_p99, Duration::from_micros(99));
        assert_eq!(s.latency_p50, Duration::from_micros(102));
        assert_eq!(s.batch_size_hist[6], 1); // size 100 → bucket 6 (64-127)
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = StatsRegistry::new().snapshot();
        assert_eq!(s.completed(), 0);
        assert_eq!(s.rejected_total(), 0);
        assert_eq!(s.queue_wait_p50, Duration::ZERO);
        assert_eq!(s.mean_batch_size(), 0.0);
        assert!(s.render().contains("0 accepted"));
    }

    #[test]
    fn render_mentions_every_section() {
        let r = StatsRegistry::new();
        r.on_launch(2, Some(&report(1e-6)));
        r.on_outcome(&solved(SolveMethod::BandedLuFallback, 3, 3), waited(5));
        r.on_outcome(&broke_down("divergence", 0), waited(5));
        let text = r.snapshot().render();
        assert!(text.contains("batch-size histogram"));
        assert!(text.contains("LU fallback"));
        assert!(text.contains("queue wait"));
        assert!(text.contains("divergence"));
        assert!(text.contains("escalation rungs"));
        assert!(text.contains("breaker trips"));
    }

    #[test]
    fn failure_taxonomy_counters() {
        let r = StatsRegistry::new();
        r.add(Tally::RejectedNonfinite, 2);
        r.add(Tally::Shed, 2);
        r.add(Tally::StealOut, 2);
        for tally in [
            Tally::RejectedZeroDiag,
            Tally::RejectedCircuitOpen,
            Tally::BreakerTrip,
            Tally::WatchdogStall,
            Tally::WorkerRespawn,
            Tally::Retry,
            Tally::HedgeFired,
            Tally::HedgeWon,
            Tally::StealIn,
        ] {
            r.add(tally, 1);
        }
        r.on_outcome(&Err(SolveError::DeviceFailure { code: "lost" }), None);
        let detail = "boom".to_string();
        r.on_outcome(&Err(SolveError::WorkerPanic { detail }), None);
        let s = r.snapshot();
        assert_eq!((s.rejected_nonfinite, s.rejected_zero_diag), (2, 1));
        assert_eq!(s.rejected_circuit_open, 1);
        assert_eq!((s.failed_device, s.failed_panic), (1, 1));
        assert_eq!(
            (s.breaker_trips, s.watchdog_stalls, s.worker_respawns),
            (1, 1, 1)
        );
        assert_eq!(
            (s.shed, s.retries, s.hedges_fired, s.hedges_won),
            (2, 1, 1, 1)
        );
        assert_eq!((s.steals_in, s.steals_out), (1, 2));
        assert_eq!(s.rejected_total(), 4);
        assert_eq!(s.completed(), 2, "device + panic count as terminal");
        assert_eq!(s.rung_hist, [0; RUNG_BUCKETS], "no engine ran them");
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let r = StatsRegistry::new();
        r.on_launch(1, None);
        r.on_outcome(&solved(SolveMethod::Bicgstab, 1, 1), waited(777));
        let s = r.snapshot();
        assert_eq!(s.queue_wait_p50, Duration::from_micros(777));
        assert_eq!(s.queue_wait_p99, Duration::from_micros(777));
        assert_eq!(s.batch_size_hist[0], 1); // size 1 → bucket 0
    }

    #[test]
    fn histogram_buckets_at_power_of_two_boundaries() {
        // Sizes 2^k land in bucket k; 2^k − 1 lands in bucket k − 1.
        for (size, bucket) in [
            (1, 0),
            (2, 1),
            (3, 1),
            (4, 2),
            (7, 2),
            (8, 3),
            (1 << 11, 11),
        ] {
            let r = StatsRegistry::new();
            r.on_launch(size, None);
            let s = r.snapshot();
            assert_eq!(
                s.batch_size_hist[bucket], 1,
                "size {size} should land in bucket {bucket}"
            );
            assert_eq!(s.batch_size_hist.iter().sum::<u64>(), 1);
        }
        // Oversized batches clamp into the last bucket.
        let r = StatsRegistry::new();
        r.on_launch(1 << 13, None);
        assert_eq!(r.snapshot().batch_size_hist[HIST_BUCKETS - 1], 1);
    }

    #[test]
    fn percentiles_at_power_of_two_sample_counts() {
        // n = 2^k and n = 2^k − 1 exercise both parities of the
        // round((n−1)·p) index formula.
        for n in [1u64, 2, 4, 8, 16, 3, 7, 15] {
            let r = StatsRegistry::new();
            for us in 1..=n {
                r.on_outcome(&solved(SolveMethod::Bicgstab, 1, 1), waited(us));
            }
            let s = r.snapshot();
            let idx = ((n - 1) as f64 * 0.5).round() as u64;
            assert_eq!(
                s.queue_wait_p50,
                Duration::from_micros(idx + 1),
                "p50 of 1..={n}"
            );
            assert_eq!(s.queue_wait_p99, Duration::from_micros(n), "p99 of 1..={n}");
        }
    }

    #[test]
    fn wait_samples_stay_bounded_and_percentiles_stable() {
        use crate::reservoir::DEFAULT_RESERVOIR_CAPACITY;
        let r = StatsRegistry::new();
        // Feed far more samples than the reservoir holds, all 500 µs.
        for _ in 0..8 * 4096 {
            r.on_outcome(&solved(SolveMethod::Bicgstab, 1, 1), waited(500));
        }
        let s = r.snapshot();
        // 32k offered, at most DEFAULT_RESERVOIR_CAPACITY retained — and
        // a uniform subsample of a constant stream has exact percentiles.
        assert_eq!(s.queue_wait_p50, Duration::from_micros(500));
        assert_eq!(s.queue_wait_p99, Duration::from_micros(500));
        let (waits, latencies) = r.samples_us();
        assert_eq!(waits.len(), DEFAULT_RESERVOIR_CAPACITY);
        assert_eq!(latencies.len(), DEFAULT_RESERVOIR_CAPACITY);
    }

    #[test]
    fn reservoir_percentiles_track_a_skewed_stream() {
        // 90% fast (100 µs), 10% slow (10 ms): after heavy subsampling
        // p50 must stay fast and p99 must stay slow.
        let r = StatsRegistry::new();
        for _ in 0..40 {
            for k in 0..1000 {
                let us = if k < 900 { 100 } else { 10_000 };
                r.on_outcome(&solved(SolveMethod::Bicgstab, 1, 1), waited(us));
            }
        }
        let s = r.snapshot();
        assert_eq!(s.queue_wait_p50, Duration::from_micros(100));
        assert_eq!(s.queue_wait_p99, Duration::from_micros(10_000));
    }

    #[test]
    fn breakdowns_aggregate_by_tag() {
        let r = StatsRegistry::new();
        for tag in ["rho", "singular", "rho"] {
            r.on_outcome(&broke_down(tag, 0), None);
        }
        let s = r.snapshot();
        assert_eq!(s.failed_not_converged, 3);
        assert_eq!(s.breakdowns.get("rho"), Some(&2));
        assert_eq!(s.breakdowns.get("singular"), Some(&1));
        assert_eq!(s.rung_hist, [0, 0, 3]);
    }
}
