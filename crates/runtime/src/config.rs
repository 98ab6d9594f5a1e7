//! Service configuration.

use std::time::Duration;

use batsolv_gpusim::DeviceSpec;
use batsolv_trace::Tracer;

use crate::breaker::BreakerConfig;
use crate::dispatcher::{LadderConfig, SolverVariant};

/// Tuning knobs of the solve service.
///
/// The two batching knobs trade latency against throughput exactly like a
/// continuous-batching inference server: `batch_target` caps how many
/// systems are fused into one launch (throughput), `linger` bounds how
/// long the oldest queued request may wait for companions (latency).
/// The default linger is zero, which makes the service work-conserving:
/// an idle engine takes a lone request at once, and a busy one fuses
/// whatever queued during its previous launch (up to `batch_target`).
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Simulated device batches are priced on.
    pub device: DeviceSpec,
    /// Bound on the submission queue; a full queue rejects new requests
    /// with [`crate::SubmitError::QueueFull`] (explicit backpressure,
    /// never a silent drop).
    pub queue_capacity: usize,
    /// Flush trigger 1: cut a batch as soon as this many requests are
    /// pending.
    pub batch_target: usize,
    /// Flush trigger 2: cut a batch (of whatever size) once the oldest
    /// pending request has waited this long. Zero (the default) cuts as
    /// soon as the worker has drained the queue.
    pub linger: Duration,
    /// Absolute residual tolerance used when a request does not carry its
    /// own (the paper's production tolerance).
    pub tolerance: f64,
    /// Iteration cap of the iterative solver; systems still unconverged
    /// at the cap climb the escalation ladder.
    pub max_iters: usize,
    /// Which fused solver variant carries rung 1 of the ladder.
    pub solver: SolverVariant,
    /// Whether BiCGSTAB stragglers are retried with restarted GMRES
    /// (rung 2 of the escalation ladder).
    pub enable_gmres: bool,
    /// GMRES restart length.
    pub gmres_restart: usize,
    /// GMRES total-iteration cap.
    pub gmres_max_iters: usize,
    /// Whether still-unconverged systems are retried with the banded-LU
    /// direct solver (the `dgbsv` baseline, last rung) before being
    /// reported failed.
    pub enable_fallback: bool,
    /// Whether the admission gate validates payloads (finiteness, usable
    /// Jacobi diagonal) at submission. Disable only in chaos tests that
    /// deliberately feed poisoned systems to the ladder.
    pub validate_admission: bool,
    /// Dispatch-time budget of the watchdog; batches exceeding it are
    /// counted as stalled. `None` disables the watchdog thread.
    pub watchdog_budget: Option<Duration>,
    /// Circuit-breaker knobs; `None` disables the breaker.
    pub breaker: Option<BreakerConfig>,
    /// Structured-event tracer threaded through the service, ladder, and
    /// solver layers. Defaults to [`Tracer::disabled`], which reduces
    /// every emission site to a single branch.
    pub tracer: Tracer,
}

impl RuntimeConfig {
    /// Defaults: V100 pricing, 1024-deep queue, batches of at most 128,
    /// no linger (work-conserving dispatch: README "The serving menu"
    /// names its row), and the ladder of [`LadderConfig::default`] (the
    /// paper's 1e-10 tolerance), which the fleet shares.
    pub fn new(device: DeviceSpec) -> RuntimeConfig {
        let ladder = LadderConfig::default();
        RuntimeConfig {
            device,
            queue_capacity: 1024,
            batch_target: 128,
            linger: Duration::ZERO,
            tolerance: ladder.default_tolerance,
            max_iters: ladder.max_iters,
            solver: ladder.solver,
            enable_gmres: ladder.enable_gmres,
            gmres_restart: ladder.gmres_restart,
            gmres_max_iters: ladder.gmres_max_iters,
            enable_fallback: ladder.enable_fallback,
            validate_admission: true,
            watchdog_budget: Some(Duration::from_secs(30)),
            breaker: Some(BreakerConfig::default()),
            tracer: Tracer::disabled(),
        }
    }

    /// Override the submission-queue bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Override the batch-size flush target.
    pub fn with_batch_target(mut self, target: usize) -> Self {
        self.batch_target = target;
        self
    }

    /// Override the linger time: a nonzero linger holds a lone request in
    /// the hope of company, trading latency for bigger batches.
    pub fn with_linger(mut self, linger: Duration) -> Self {
        self.linger = linger;
        self
    }

    /// Override the default tolerance.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Override the iteration cap.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Override the rung-1 solver variant.
    pub fn with_solver(mut self, solver: SolverVariant) -> Self {
        self.solver = solver;
        self
    }

    /// Enable or disable the direct fallback.
    pub fn with_fallback(mut self, enabled: bool) -> Self {
        self.enable_fallback = enabled;
        self
    }

    /// Enable or disable the GMRES escalation rung.
    pub fn with_gmres(mut self, enabled: bool) -> Self {
        self.enable_gmres = enabled;
        self
    }

    /// Override the GMRES restart length and iteration cap.
    pub fn with_gmres_limits(mut self, restart: usize, max_iters: usize) -> Self {
        self.gmres_restart = restart;
        self.gmres_max_iters = max_iters;
        self
    }

    /// Enable or disable the admission gate.
    pub fn with_admission(mut self, enabled: bool) -> Self {
        self.validate_admission = enabled;
        self
    }

    /// Override (or with `None`, disable) the watchdog budget.
    pub fn with_watchdog(mut self, budget: Option<Duration>) -> Self {
        self.watchdog_budget = budget;
        self
    }

    /// Override (or with `None`, disable) the circuit breaker.
    pub fn with_breaker(mut self, breaker: Option<BreakerConfig>) -> Self {
        self.breaker = breaker;
        self
    }

    /// Attach a tracer; every service, ladder, and solver event flows
    /// into its sink (and flight recorder, if one is configured).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Validate the knob combination.
    pub fn validate(&self) -> Result<(), String> {
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be at least 1".into());
        }
        if self.batch_target == 0 {
            return Err("batch_target must be at least 1".into());
        }
        if self.tolerance.is_nan() || self.tolerance <= 0.0 {
            return Err(format!(
                "tolerance must be positive, got {}",
                self.tolerance
            ));
        }
        if self.max_iters == 0 {
            return Err("max_iters must be at least 1".into());
        }
        if self.enable_gmres && (self.gmres_restart == 0 || self.gmres_max_iters == 0) {
            return Err("gmres_restart and gmres_max_iters must be at least 1".into());
        }
        if let Some(b) = &self.breaker {
            if b.trip_after == 0 {
                return Err("breaker trip_after must be at least 1".into());
            }
            if !(0.0..=1.0).contains(&b.degraded_fraction) {
                return Err(format!(
                    "breaker degraded_fraction must be in [0, 1], got {}",
                    b.degraded_fraction
                ));
            }
        }
        Ok(())
    }
}

/// Retry policy for retryable chunk failures (device failures and
/// worker panics — see `FailureClass` in `batsolv-faults`).
///
/// Backoff is exponential with deterministic, seeded jitter: the delay
/// for `(attempt, id)` is a pure function of the policy, so chaos tests
/// replaying a seed observe identical retry schedules. `max_attempts`
/// counts *executions*, not re-tries: 1 means a chunk runs once and a
/// retryable failure is terminal (today's behavior, and the default).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total execution attempts per chunk (1 = retries off).
    pub max_attempts: u32,
    /// Backoff before attempt 2 (doubles each further attempt).
    pub base_backoff: Duration,
    /// Ceiling on any single backoff, jitter included.
    pub max_backoff: Duration,
    /// Jitter fraction: the delay is scaled by `1.0 + jitter * u` with
    /// `u` uniform in `[0, 1)` drawn from the seeded hash.
    pub jitter: f64,
    /// Seed for the jitter hash.
    pub seed: u64,
}

impl RetryPolicy {
    /// Retries off: one attempt, retryable failures become terminal.
    pub fn disabled() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
            jitter: 0.25,
            seed: 0x5eed_4e77,
        }
    }

    /// Retries on with `max_attempts` total executions and the default
    /// 1 ms base / 100 ms cap / 25% jitter schedule.
    pub fn new(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::disabled()
        }
    }

    /// Fix the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Deterministic backoff before executing `attempt` (2-based: the
    /// first retry is attempt 2) of the chunk whose lead request id is
    /// `id`. Pure in `(self, attempt, id)`.
    pub fn backoff(&self, attempt: u32, id: u64) -> Duration {
        // Exponent for the retry ordinal; clamp so the shift is defined.
        let exp = attempt.saturating_sub(2).min(20);
        let base = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        // splitmix64 over (seed, id, attempt) for the jitter draw.
        let mut z = self
            .seed
            .wrapping_add(id.rotate_left(17))
            .wrapping_add(attempt as u64)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        let scaled = base.mul_f64(1.0 + self.jitter.max(0.0) * u);
        scaled.min(self.max_backoff)
    }
}

/// Straggler-hedging policy: once a primary chunk has been in flight
/// longer than its shard class's hedge delay, an idle shard duplicates
/// it and the first terminal outcome wins the shared outcome slots.
#[derive(Clone, Copy, Debug)]
pub struct HedgeConfig {
    /// Master switch: idle GPU shards hedge only while this is set.
    pub enabled: bool,
    /// Floor on the hedge delay, so cold reservoirs (no latency
    /// samples yet) do not hedge instantly.
    pub min_delay: Duration,
    /// Hedge when the in-flight age exceeds this multiple of the
    /// executing shard's observed p99 chunk latency.
    pub p99_factor: f64,
}

impl HedgeConfig {
    /// Hedging off (the default).
    pub fn disabled() -> HedgeConfig {
        HedgeConfig {
            enabled: false,
            min_delay: Duration::from_millis(20),
            p99_factor: 2.0,
        }
    }

    /// Hedging on with the default 20 ms floor and 2x p99 trigger.
    pub fn enabled() -> HedgeConfig {
        HedgeConfig {
            enabled: true,
            ..HedgeConfig::disabled()
        }
    }

    /// Set the hedge-delay floor.
    pub fn with_min_delay(mut self, d: Duration) -> Self {
        self.min_delay = d;
        self
    }

    /// Set the p99 multiple that triggers a hedge.
    pub fn with_p99_factor(mut self, f: f64) -> Self {
        self.p99_factor = f;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_overrides() {
        let c = RuntimeConfig::new(DeviceSpec::a100())
            .with_queue_capacity(8)
            .with_batch_target(4)
            .with_linger(Duration::from_micros(500))
            .with_tolerance(1e-8)
            .with_max_iters(50)
            .with_fallback(false);
        assert_eq!(c.queue_capacity, 8);
        assert_eq!(c.batch_target, 4);
        assert_eq!(c.linger, Duration::from_micros(500));
        assert_eq!(c.tolerance, 1e-8);
        assert_eq!(c.max_iters, 50);
        assert!(!c.enable_fallback);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_knobs() {
        let base = RuntimeConfig::new(DeviceSpec::v100());
        assert!(base.clone().with_queue_capacity(0).validate().is_err());
        assert!(base.clone().with_batch_target(0).validate().is_err());
        assert!(base.clone().with_tolerance(0.0).validate().is_err());
        assert!(base.clone().with_max_iters(0).validate().is_err());
        assert!(base.validate().is_ok());
    }

    #[test]
    fn backoff_is_deterministic_under_a_fixed_seed() {
        let policy = RetryPolicy::new(5).with_seed(42);
        let again = RetryPolicy::new(5).with_seed(42);
        for attempt in 2..=5u32 {
            for id in [0u64, 1, 17, 1 << 40] {
                assert_eq!(
                    policy.backoff(attempt, id),
                    again.backoff(attempt, id),
                    "pure function of (policy, attempt, id)"
                );
            }
        }
        // A different seed shifts the jitter for at least one cell.
        let other = RetryPolicy::new(5).with_seed(43);
        assert_ne!(policy.backoff(2, 17), other.backoff(2, 17));
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::new(40)
        };
        // No jitter: attempt 2 = base, attempt 3 = 2x base, ...
        assert_eq!(policy.backoff(2, 9), Duration::from_millis(1));
        assert_eq!(policy.backoff(3, 9), Duration::from_millis(2));
        assert_eq!(policy.backoff(4, 9), Duration::from_millis(4));
        // Deep attempts saturate at the cap instead of overflowing.
        assert_eq!(policy.backoff(40, 9), policy.max_backoff);
        // Jitter never exceeds the cap either.
        let jittered = RetryPolicy::new(40);
        assert!(jittered.backoff(40, 9) <= jittered.max_backoff);
    }
}
