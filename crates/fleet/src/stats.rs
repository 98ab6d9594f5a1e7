//! Fleet observability: per-shard snapshots, each read from its
//! worker's runtime [`StatsRegistry`](batsolv_runtime::StatsRegistry),
//! rolled up into a fleet-wide view with merged percentiles.

use std::time::{Duration, Instant};

use batsolv_runtime::{percentile_us, ClassesSnapshot};

use crate::shard::ShardShared;

/// Point-in-time copy of one shard's counters and percentiles. The CPU
/// spill pool reports through the same shape (its `shard` id is one
/// past the GPU range, its `device` is the Skylake node).
#[derive(Clone, Debug)]
pub struct ShardSnapshot {
    /// Shard id (GPU shards `0..devices`; the CPU pool is `devices`).
    pub shard: u32,
    /// Simulated device behind the shard.
    pub device: &'static str,
    /// Chunks queued right now.
    pub queue_depth: usize,
    /// Whether the shard's circuit breaker is open right now.
    pub breaker_open: bool,
    /// Engine launches of this shard's worker: own and stolen chunks,
    /// hedge duplicates, and the singletons of a blame isolation.
    pub chunks_executed: u64,
    /// Systems that reached a converged solution here.
    pub completed: u64,
    /// Systems that reached a terminal failure here.
    pub failed: u64,
    /// Chunks this shard stole from loaded peers.
    pub steals_in: u64,
    /// Chunks loaded peers stole from this shard's queue.
    pub steals_out: u64,
    /// Times this shard's breaker tripped open.
    pub breaker_trips: u64,
    /// Chunks this shard re-queued elsewhere after a retryable failure.
    pub retries: u64,
    /// Hedge duplicates this shard launched against peer flights.
    pub hedges_fired: u64,
    /// Hedge duplicates this shard won (delivered at least one outcome).
    pub hedges_won: u64,
    /// Systems shed at dispatch because their budget was spent.
    pub shed: u64,
    /// Simulated device time this shard accumulated, seconds.
    pub sim_time_s: f64,
    /// Median wait (submission to dispatch) of systems executed here.
    pub wait_p50: Duration,
    /// 99th-percentile wait of systems executed here.
    pub wait_p99: Duration,
    /// Median submit-to-outcome latency of systems executed here.
    pub latency_p50: Duration,
    /// 99th-percentile submit-to-outcome latency.
    pub latency_p99: Duration,
}

/// Fleet-wide rollup: every shard's snapshot plus merged percentiles
/// and scheduler counters.
#[derive(Clone, Debug)]
pub struct FleetSnapshot {
    /// GPU shards, ordered by id.
    pub shards: Vec<ShardSnapshot>,
    /// The CPU banded-LU spill pool.
    pub cpu_pool: ShardSnapshot,
    /// Systems accepted by the scheduler.
    pub accepted: u64,
    /// Systems rejected at submit: every member of a refused group
    /// (shape, tolerance, deadline, backpressure, breaker).
    pub rejected: u64,
    /// Chunks dispatched to GPU shards.
    pub gpu_chunks: u64,
    /// Systems spilled to the CPU pool (sub-`min_batch_size` chunks).
    pub spilled: u64,
    /// Fleet-wide median queue wait (samples merged across shards).
    pub wait_p50: Duration,
    /// Fleet-wide 99th-percentile queue wait.
    pub wait_p99: Duration,
    /// Fleet-wide median submit-to-outcome latency.
    pub latency_p50: Duration,
    /// Fleet-wide 99th-percentile submit-to-outcome latency.
    pub latency_p99: Duration,
    /// Fleet makespan: the busiest device's simulated time, seconds.
    pub makespan_s: f64,
    /// Sum of simulated device time across the fleet, seconds.
    pub sim_time_total_s: f64,
    /// Per-workload-class latency and SLO statistics, fed by every
    /// winning delivery's phase ledger.
    pub classes: ClassesSnapshot,
}

impl FleetSnapshot {
    /// Systems that reached a converged solution anywhere.
    pub fn completed(&self) -> u64 {
        self.shards.iter().map(|s| s.completed).sum::<u64>() + self.cpu_pool.completed
    }

    /// Systems that reached a terminal failure anywhere.
    pub fn failed(&self) -> u64 {
        self.shards.iter().map(|s| s.failed).sum::<u64>() + self.cpu_pool.failed
    }

    /// Total steals across the fleet (each steal counts once).
    pub fn steals(&self) -> u64 {
        self.shards.iter().map(|s| s.steals_in).sum()
    }

    /// Total breaker trips across the fleet.
    pub fn breaker_trips(&self) -> u64 {
        self.shards.iter().map(|s| s.breaker_trips).sum()
    }

    /// Total retry re-queues across the fleet (CPU pool included).
    pub fn retries(&self) -> u64 {
        self.shards.iter().map(|s| s.retries).sum::<u64>() + self.cpu_pool.retries
    }

    /// Total hedge duplicates fired across the fleet.
    pub fn hedges_fired(&self) -> u64 {
        self.shards.iter().map(|s| s.hedges_fired).sum()
    }

    /// Total hedge duplicates that won their race.
    pub fn hedges_won(&self) -> u64 {
        self.shards.iter().map(|s| s.hedges_won).sum()
    }

    /// Total systems shed at dispatch across the fleet.
    pub fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed).sum::<u64>() + self.cpu_pool.shed
    }

    /// Human-readable multi-line report with a per-shard breakdown —
    /// the periodic stats page of `batsolv-serve --devices N`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fleet stats: {} accepted, {} rejected, {} completed, {} failed, \
             {} steals, {} spilled systems, {} retries, {}/{} hedges won/fired, \
             {} shed\n",
            self.accepted,
            self.rejected,
            self.completed(),
            self.failed(),
            self.steals(),
            self.spilled,
            self.retries(),
            self.hedges_won(),
            self.hedges_fired(),
            self.shed(),
        ));
        out.push_str(&format!(
            "  fleet    : wait p50 {:?} p99 {:?} | latency p50 {:?} p99 {:?} | \
             makespan {:.6}s of {:.6}s total sim\n",
            self.wait_p50,
            self.wait_p99,
            self.latency_p50,
            self.latency_p99,
            self.makespan_s,
            self.sim_time_total_s,
        ));
        for s in self.shards.iter().chain(std::iter::once(&self.cpu_pool)) {
            out.push_str(&format!(
                "  shard {:>2} : {} | queue {} | breaker {} | {} chunks, {} ok, {} failed, \
                 steals {}/{} in/out | wait p50 {:?} p99 {:?} | sim {:.6}s\n",
                s.shard,
                s.device,
                s.queue_depth,
                if s.breaker_open { "OPEN" } else { "closed" },
                s.chunks_executed,
                s.completed,
                s.failed,
                s.steals_in,
                s.steals_out,
                s.wait_p50,
                s.wait_p99,
                s.sim_time_s,
            ));
        }
        out.push_str(&self.classes.render());
        out
    }
}

/// [`percentile_us`] over a *sorted* µs sample slice, as a duration.
pub(crate) fn percentile(sorted: &[u64], p: f64) -> Duration {
    Duration::from_micros(percentile_us(sorted, p))
}

/// Snapshot one shard from its worker's registry, appending its raw
/// samples to the fleet-wide merge vectors.
pub(crate) fn snapshot_shard(
    shared: &ShardShared,
    now: Instant,
    merged_wait_us: &mut Vec<u64>,
    merged_latency_us: &mut Vec<u64>,
) -> ShardSnapshot {
    let stats = &shared.worker.stats;
    let (wait, latency) = stats.samples_us();
    merged_wait_us.extend(wait);
    merged_latency_us.extend(latency);
    let s = stats.snapshot();
    let completed = s.converged_iterative + s.converged_gmres + s.converged_fallback;
    ShardSnapshot {
        shard: shared.worker.id,
        device: shared.device_name,
        queue_depth: shared.queue.len(),
        breaker_open: shared.worker.admits(now).is_err(),
        chunks_executed: s.batches_formed,
        completed,
        failed: s.completed() - completed,
        steals_in: s.steals_in,
        steals_out: s.steals_out,
        breaker_trips: s.breaker_trips,
        retries: s.retries,
        hedges_fired: s.hedges_fired,
        hedges_won: s.hedges_won,
        shed: s.shed,
        sim_time_s: s.sim_time_total_s,
        wait_p50: s.queue_wait_p50,
        wait_p99: s.queue_wait_p99,
        latency_p50: s.latency_p50,
        latency_p99: s.latency_p99,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_follows_the_runtime_convention() {
        assert_eq!(percentile(&[], 0.99), Duration::ZERO);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), Duration::from_micros(51));
        assert_eq!(percentile(&sorted, 0.99), Duration::from_micros(99));
        assert_eq!(percentile(&[7], 0.99), Duration::from_micros(7));
    }
}
