//! Service counters, latency statistics, and the failure taxonomy.
//!
//! Hot-path counters are atomics; the batch-size histogram, breakdown
//! taxonomy, and the queue-wait samples live behind a mutex touched once
//! per *batch* (not per request), so contention stays negligible.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::reservoir::Reservoir;

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
    /// Queue-wait samples in microseconds, one per dispatched request.
    /// Bounded: a fixed-capacity reservoir (Algorithm R, seeded), so a
    /// long-running service never grows the registry without limit while
    /// percentiles stay exact under the cap and representative above it.
    wait_samples_us: Reservoir,
    iterations_total: u64,
    iterations_max: u64,
    sim_time_total_s: f64,
    /// Breakdown tag → occurrence count (terminal breakdowns only).
    breakdowns: BTreeMap<&'static str, u64>,
    /// `rung_hist[k]` counts requests whose dispatch attempted `k+1`
    /// ladder rungs.
    rung_hist: [u64; RUNG_BUCKETS],
    /// Name of the configured rung-1 solver variant ("" until set).
    solver: &'static str,
}

/// Shared counter registry written by the service, read via
/// [`StatsRegistry::snapshot`].
#[derive(Debug, Default)]
pub struct StatsRegistry {
    accepted: AtomicU64,
    rejected_full: AtomicU64,
    rejected_shape: AtomicU64,
    rejected_tolerance: AtomicU64,
    rejected_nonfinite: AtomicU64,
    rejected_zero_diag: AtomicU64,
    rejected_circuit_open: AtomicU64,
    converged_iterative: AtomicU64,
    converged_gmres: AtomicU64,
    converged_fallback: AtomicU64,
    failed_not_converged: AtomicU64,
    failed_deadline: AtomicU64,
    failed_device: AtomicU64,
    failed_panic: AtomicU64,
    batches_formed: AtomicU64,
    breaker_trips: AtomicU64,
    watchdog_stalls: AtomicU64,
    worker_respawns: AtomicU64,
    sim_syncs_total: AtomicU64,
    sim_reductions_total: AtomicU64,
    sampled: Mutex<Sampled>,
}

impl StatsRegistry {
    /// Fresh registry, all zeros.
    pub fn new() -> StatsRegistry {
        StatsRegistry::default()
    }

    pub(crate) fn on_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_rejected_full(&self) {
        self.rejected_full.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_rejected_shape(&self) {
        self.rejected_shape.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_rejected_tolerance(&self) {
        self.rejected_tolerance.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_rejected_nonfinite(&self) {
        self.rejected_nonfinite.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_rejected_zero_diag(&self) {
        self.rejected_zero_diag.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_rejected_circuit_open(&self) {
        self.rejected_circuit_open.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_deadline_exceeded(&self) {
        self.failed_deadline.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_device_failure(&self) {
        self.failed_device.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_worker_panic_outcome(&self) {
        self.failed_panic.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_breaker_trip(&self) {
        self.breaker_trips.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_watchdog_stall(&self) {
        self.watchdog_stalls.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_worker_respawn(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the configured rung-1 solver variant (once, at startup).
    pub(crate) fn set_solver(&self, name: &'static str) {
        self.sampled.lock().unwrap().solver = name;
    }

    /// Accumulate one dispatch's simulated synchronization counters.
    pub(crate) fn on_sync_counts(&self, syncs: u64, reductions: u64) {
        self.sim_syncs_total.fetch_add(syncs, Ordering::Relaxed);
        self.sim_reductions_total
            .fetch_add(reductions, Ordering::Relaxed);
    }

    /// Record one dispatched batch: its size, per-request queue waits,
    /// per-request outcomes, and the simulated kernel time it cost.
    pub(crate) fn on_batch(
        &self,
        batch_size: usize,
        waits: &[Duration],
        iterations: &[u32],
        outcomes: BatchOutcomes,
        sim_time_s: f64,
    ) {
        self.batches_formed.fetch_add(1, Ordering::Relaxed);
        self.converged_iterative
            .fetch_add(outcomes.converged_iterative, Ordering::Relaxed);
        self.converged_gmres
            .fetch_add(outcomes.converged_gmres, Ordering::Relaxed);
        self.converged_fallback
            .fetch_add(outcomes.converged_fallback, Ordering::Relaxed);
        self.failed_not_converged
            .fetch_add(outcomes.failed, Ordering::Relaxed);
        let mut s = self.sampled.lock().unwrap();
        let bucket = usize::try_from(batch_size.max(1).ilog2())
            .unwrap()
            .min(HIST_BUCKETS - 1);
        s.batch_size_hist[bucket] += 1;
        for w in waits {
            s.wait_samples_us.push(w.as_micros() as u64);
        }
        for &it in iterations {
            s.iterations_total += u64::from(it);
            s.iterations_max = s.iterations_max.max(u64::from(it));
        }
        s.sim_time_total_s += sim_time_s;
        for &tag in &outcomes.breakdowns {
            *s.breakdowns.entry(tag).or_insert(0) += 1;
        }
        for &rungs in &outcomes.rungs_attempted {
            s.rung_hist[rungs.clamp(1, RUNG_BUCKETS) - 1] += 1;
        }
    }

    /// Consistent point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let s = self.sampled.lock().unwrap();
        let mut waits = s.wait_samples_us.samples().to_vec();
        waits.sort_unstable();
        let pct = |p: f64| Duration::from_micros(crate::reservoir::percentile_us(&waits, p));
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_full.load(Ordering::Relaxed),
            rejected_shape: self.rejected_shape.load(Ordering::Relaxed),
            rejected_tolerance: self.rejected_tolerance.load(Ordering::Relaxed),
            rejected_nonfinite: self.rejected_nonfinite.load(Ordering::Relaxed),
            rejected_zero_diag: self.rejected_zero_diag.load(Ordering::Relaxed),
            rejected_circuit_open: self.rejected_circuit_open.load(Ordering::Relaxed),
            converged_iterative: self.converged_iterative.load(Ordering::Relaxed),
            converged_gmres: self.converged_gmres.load(Ordering::Relaxed),
            converged_fallback: self.converged_fallback.load(Ordering::Relaxed),
            failed_not_converged: self.failed_not_converged.load(Ordering::Relaxed),
            failed_deadline: self.failed_deadline.load(Ordering::Relaxed),
            failed_device: self.failed_device.load(Ordering::Relaxed),
            failed_panic: self.failed_panic.load(Ordering::Relaxed),
            batches_formed: self.batches_formed.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            watchdog_stalls: self.watchdog_stalls.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            batch_size_hist: s.batch_size_hist,
            rung_hist: s.rung_hist,
            breakdowns: s.breakdowns.clone(),
            queue_wait_p50: pct(0.50),
            queue_wait_p99: pct(0.99),
            solver_iterations_total: s.iterations_total,
            solver_iterations_max: s.iterations_max,
            sim_time_total_s: s.sim_time_total_s,
            sim_syncs_total: self.sim_syncs_total.load(Ordering::Relaxed),
            sim_reductions_total: self.sim_reductions_total.load(Ordering::Relaxed),
            solver: s.solver,
        }
    }
}

/// Per-batch outcome tallies handed to [`StatsRegistry::on_batch`].
#[derive(Clone, Debug, Default)]
pub(crate) struct BatchOutcomes {
    /// Requests converged by BiCGSTAB (rung 1).
    pub converged_iterative: u64,
    /// Requests converged by GMRES (rung 2).
    pub converged_gmres: u64,
    /// Requests converged by the banded-LU fallback (rung 3).
    pub converged_fallback: u64,
    /// Requests that failed to converge.
    pub failed: u64,
    /// Terminal breakdown tags across the batch (one per request that
    /// ended with a breakdown).
    pub breakdowns: Vec<&'static str>,
    /// Ladder rungs attempted per dispatched request.
    pub rungs_attempted: Vec<usize>,
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
    /// Fused batches dispatched.
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
    /// Median queue wait across dispatched requests.
    pub queue_wait_p50: Duration,
    /// 99th-percentile queue wait across dispatched requests.
    pub queue_wait_p99: Duration,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = StatsRegistry::new();
        r.on_accepted();
        r.on_accepted();
        r.on_rejected_full();
        r.on_deadline_exceeded();
        r.on_batch(
            2,
            &[Duration::from_micros(100), Duration::from_micros(300)],
            &[10, 20],
            BatchOutcomes {
                converged_iterative: 2,
                rungs_attempted: vec![1, 1],
                ..Default::default()
            },
            1.5e-4,
        );
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
        assert_eq!(s.completed(), 3);
    }

    #[test]
    fn percentiles_from_samples() {
        let r = StatsRegistry::new();
        let waits: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let iters = vec![1u32; 100];
        r.on_batch(
            100,
            &waits,
            &iters,
            BatchOutcomes {
                converged_iterative: 100,
                ..Default::default()
            },
            0.0,
        );
        let s = r.snapshot();
        // Index round((100-1)*0.5) = 50 → the 51 µs sample.
        assert_eq!(s.queue_wait_p50, Duration::from_micros(51));
        assert_eq!(s.queue_wait_p99, Duration::from_micros(99));
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
        r.on_batch(
            1,
            &[Duration::from_micros(5)],
            &[3],
            BatchOutcomes {
                converged_fallback: 1,
                breakdowns: vec!["divergence"],
                rungs_attempted: vec![3],
                ..Default::default()
            },
            1e-6,
        );
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
        r.on_rejected_nonfinite();
        r.on_rejected_nonfinite();
        r.on_rejected_zero_diag();
        r.on_rejected_circuit_open();
        r.on_device_failure();
        r.on_worker_panic_outcome();
        r.on_breaker_trip();
        r.on_watchdog_stall();
        r.on_worker_respawn();
        let s = r.snapshot();
        assert_eq!(s.rejected_nonfinite, 2);
        assert_eq!(s.rejected_zero_diag, 1);
        assert_eq!(s.rejected_circuit_open, 1);
        assert_eq!(s.failed_device, 1);
        assert_eq!(s.failed_panic, 1);
        assert_eq!(s.breaker_trips, 1);
        assert_eq!(s.watchdog_stalls, 1);
        assert_eq!(s.worker_respawns, 1);
        assert_eq!(s.rejected_total(), 4);
        assert_eq!(s.completed(), 2, "device + panic count as terminal");
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let r = StatsRegistry::new();
        r.on_batch(
            1,
            &[Duration::from_micros(777)],
            &[1],
            BatchOutcomes {
                converged_iterative: 1,
                rungs_attempted: vec![1],
                ..Default::default()
            },
            0.0,
        );
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
            r.on_batch(size, &[], &[], BatchOutcomes::default(), 0.0);
            let s = r.snapshot();
            assert_eq!(
                s.batch_size_hist[bucket], 1,
                "size {size} should land in bucket {bucket}"
            );
            assert_eq!(s.batch_size_hist.iter().sum::<u64>(), 1);
        }
        // Oversized batches clamp into the last bucket.
        let r = StatsRegistry::new();
        r.on_batch(1 << 13, &[], &[], BatchOutcomes::default(), 0.0);
        assert_eq!(r.snapshot().batch_size_hist[HIST_BUCKETS - 1], 1);
    }

    #[test]
    fn percentiles_at_power_of_two_sample_counts() {
        // n = 2^k and n = 2^k − 1 exercise both parities of the
        // round((n−1)·p) index formula.
        for n in [1u64, 2, 4, 8, 16, 3, 7, 15] {
            let r = StatsRegistry::new();
            let waits: Vec<Duration> = (1..=n).map(Duration::from_micros).collect();
            let iters = vec![1u32; n as usize];
            r.on_batch(n as usize, &waits, &iters, BatchOutcomes::default(), 0.0);
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
        let waits = vec![Duration::from_micros(500); 4096];
        let iters = vec![1u32; 4096];
        for _ in 0..8 {
            r.on_batch(4096, &waits, &iters, BatchOutcomes::default(), 0.0);
        }
        let s = r.snapshot();
        // 32k offered, at most DEFAULT_RESERVOIR_CAPACITY retained — and
        // a uniform subsample of a constant stream has exact percentiles.
        assert_eq!(s.queue_wait_p50, Duration::from_micros(500));
        assert_eq!(s.queue_wait_p99, Duration::from_micros(500));
        let retained = {
            let sampled = r.sampled.lock().unwrap();
            sampled.wait_samples_us.len()
        };
        assert!(retained <= DEFAULT_RESERVOIR_CAPACITY);
        assert_eq!(retained, DEFAULT_RESERVOIR_CAPACITY);
    }

    #[test]
    fn reservoir_percentiles_track_a_skewed_stream() {
        // 90% fast (100 µs), 10% slow (10 ms): after heavy subsampling
        // p50 must stay fast and p99 must stay slow.
        let r = StatsRegistry::new();
        let mut waits = vec![Duration::from_micros(100); 900];
        waits.extend(vec![Duration::from_micros(10_000); 100]);
        let iters = vec![1u32; 1000];
        for _ in 0..40 {
            r.on_batch(1000, &waits, &iters, BatchOutcomes::default(), 0.0);
        }
        let s = r.snapshot();
        assert_eq!(s.queue_wait_p50, Duration::from_micros(100));
        assert_eq!(s.queue_wait_p99, Duration::from_micros(10_000));
    }

    #[test]
    fn breakdowns_aggregate_by_tag() {
        let r = StatsRegistry::new();
        for tags in [vec!["rho", "singular"], vec!["rho"]] {
            r.on_batch(
                2,
                &[],
                &[],
                BatchOutcomes {
                    failed: tags.len() as u64,
                    breakdowns: tags,
                    rungs_attempted: vec![3, 3],
                    ..Default::default()
                },
                0.0,
            );
        }
        let s = r.snapshot();
        assert_eq!(s.breakdowns.get("rho"), Some(&2));
        assert_eq!(s.breakdowns.get("singular"), Some(&1));
        assert_eq!(s.rung_hist, [0, 0, 4]);
    }
}
