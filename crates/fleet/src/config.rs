//! Fleet configuration.

use batsolv_gpusim::DeviceSpec;
use batsolv_runtime::{BreakerConfig, HedgeConfig, LadderConfig, RetryPolicy};
use batsolv_trace::Tracer;
use batsolv_types::{Error, Result};

/// Default minimum batch size before a chunk spills to the CPU pool —
/// below this the GPU launch overhead dominates and the paper's Skylake
/// banded-LU baseline wins (the SPH-EXA `MIN_BATCH_SIZE` cutoff, scaled
/// to the service's chunk sizes).
pub const DEFAULT_MIN_BATCH_SIZE: usize = 8;

/// Default maximum systems per dispatched chunk (the SPH-EXA
/// `MAX_BATCH_SIZE` cutoff): larger groups are split so no single shard
/// absorbs an unbounded launch.
pub const DEFAULT_MAX_BATCH_SIZE: usize = 256;

/// Which simulated GPU stands behind every shard of the fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceProfile {
    /// NVIDIA V100-16GB (Summit).
    V100,
    /// NVIDIA A100-40GB.
    A100,
    /// AMD MI100-32GB.
    Mi100,
}

impl DeviceProfile {
    /// Parse a `--device-profile` value.
    pub fn parse(s: &str) -> Option<DeviceProfile> {
        match s {
            "v100" => Some(DeviceProfile::V100),
            "a100" => Some(DeviceProfile::A100),
            "mi100" => Some(DeviceProfile::Mi100),
            _ => None,
        }
    }

    /// The flag spelling this profile parses from.
    pub fn name(self) -> &'static str {
        match self {
            DeviceProfile::V100 => "v100",
            DeviceProfile::A100 => "a100",
            DeviceProfile::Mi100 => "mi100",
        }
    }

    /// The gpusim device spec for one shard.
    pub fn spec(self) -> DeviceSpec {
        match self {
            DeviceProfile::V100 => DeviceSpec::v100(),
            DeviceProfile::A100 => DeviceSpec::a100(),
            DeviceProfile::Mi100 => DeviceSpec::mi100(),
        }
    }

    /// Every accepted `--device-profile` value.
    pub const NAMES: &'static [&'static str] = &["v100", "a100", "mi100"];
}

/// Knobs of a fleet service.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of GPU shards (simulated devices).
    pub devices: usize,
    /// Device profile behind every shard (homogeneous fleet; the
    /// scheduler itself is profile-agnostic).
    pub profile: DeviceProfile,
    /// Chunks smaller than this spill to the CPU banded-LU pool; a
    /// chunk of exactly this size stays on a GPU shard.
    pub min_batch_size: usize,
    /// Groups are split into chunks of at most this many systems.
    pub max_batch_size: usize,
    /// Bounded per-shard queue capacity, in chunks.
    pub queue_capacity: usize,
    /// Whether idle shards steal queued chunks from loaded ones.
    pub steal: bool,
    /// Seed fixing every thief's victim-visit order (deterministic
    /// steal schedules for tests).
    pub steal_seed: u64,
    /// Escalation-ladder knobs applied by every shard's engine (the CPU
    /// pool's ladder is banded LU alone whatever they say).
    pub ladder: LadderConfig,
    /// Per-shard circuit-breaker knobs.
    pub breaker: BreakerConfig,
    /// Retry policy for retryable chunk failures.
    pub retry: RetryPolicy,
    /// Straggler-hedging policy.
    pub hedge: HedgeConfig,
    /// Tracer every shard (and the scheduler) emits into.
    pub tracer: Tracer,
}

impl FleetConfig {
    /// A fleet of `devices` shards with the defaults: V100 profile,
    /// min/max cutoffs [`DEFAULT_MIN_BATCH_SIZE`] /
    /// [`DEFAULT_MAX_BATCH_SIZE`], stealing on, and the single-device
    /// service's ladder ([`LadderConfig::default`]), which the CPU pool
    /// runs on the 38-worker Skylake node.
    pub fn new(devices: usize) -> FleetConfig {
        FleetConfig {
            devices,
            profile: DeviceProfile::V100,
            min_batch_size: DEFAULT_MIN_BATCH_SIZE,
            max_batch_size: DEFAULT_MAX_BATCH_SIZE,
            queue_capacity: 256,
            steal: true,
            steal_seed: 0x5eed_f1ee,
            ladder: LadderConfig::default(),
            breaker: BreakerConfig::default(),
            retry: RetryPolicy::disabled(),
            hedge: HedgeConfig::disabled(),
            tracer: Tracer::disabled(),
        }
    }

    /// Set the device profile behind every shard.
    pub fn with_profile(mut self, profile: DeviceProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Set the CPU-spill cutoff.
    pub fn with_min_batch_size(mut self, min: usize) -> Self {
        self.min_batch_size = min;
        self
    }

    /// Set the chunking ceiling.
    pub fn with_max_batch_size(mut self, max: usize) -> Self {
        self.max_batch_size = max;
        self
    }

    /// Set the per-shard queue bound (in chunks).
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap;
        self
    }

    /// Enable or disable work stealing.
    pub fn with_steal(mut self, steal: bool) -> Self {
        self.steal = steal;
        self
    }

    /// Fix the steal victim-order seed.
    pub fn with_steal_seed(mut self, seed: u64) -> Self {
        self.steal_seed = seed;
        self
    }

    /// Override the per-shard breaker knobs.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Override the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Override the hedging policy.
    pub fn with_hedge(mut self, hedge: HedgeConfig) -> Self {
        self.hedge = hedge;
        self
    }

    /// Attach a tracer.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Reject nonsensical knob combinations before any thread spawns.
    pub fn validate(&self) -> Result<()> {
        if self.devices == 0 {
            return Err(Error::InvalidConfig(
                "fleet needs at least one device shard".into(),
            ));
        }
        if self.min_batch_size == 0 {
            return Err(Error::InvalidConfig("min_batch_size must be >= 1".into()));
        }
        if self.max_batch_size < self.min_batch_size {
            return Err(Error::InvalidConfig(
                "max_batch_size must be >= min_batch_size (the dispatch window)".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(Error::InvalidConfig("queue_capacity must be >= 1".into()));
        }
        if self.retry.max_attempts == 0 {
            return Err(Error::InvalidConfig(
                "retry.max_attempts must be >= 1 (1 means retries off)".into(),
            ));
        }
        if !self.hedge.p99_factor.is_finite() || self.hedge.p99_factor <= 0.0 {
            return Err(Error::InvalidConfig(
                "hedge.p99_factor must be positive and finite".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_parse_roundtrip() {
        for name in DeviceProfile::NAMES {
            let p = DeviceProfile::parse(name).unwrap();
            assert_eq!(p.name(), *name);
        }
        assert!(DeviceProfile::parse("h100").is_none());
        assert_eq!(DeviceProfile::V100.spec().name, "NVIDIA V100-16GB");
    }

    #[test]
    fn validation_rejects_inverted_cutoffs() {
        assert!(FleetConfig::new(4).validate().is_ok());
        assert!(FleetConfig::new(0).validate().is_err());
        assert!(FleetConfig::new(2)
            .with_min_batch_size(0)
            .validate()
            .is_err());
        assert!(FleetConfig::new(2)
            .with_min_batch_size(64)
            .with_max_batch_size(32)
            .validate()
            .is_err());
        assert!(FleetConfig::new(2)
            .with_queue_capacity(0)
            .validate()
            .is_err());
        assert!(FleetConfig::new(2)
            .with_retry(RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::disabled()
            })
            .validate()
            .is_err());
        assert!(FleetConfig::new(2)
            .with_hedge(HedgeConfig {
                p99_factor: 0.0,
                ..HedgeConfig::disabled()
            })
            .validate()
            .is_err());
    }
}
