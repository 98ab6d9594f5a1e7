//! Fleet sweep: multi-device sharded serving through `batsolv-fleet`.
//!
//! Two passes over the same XGC group stream:
//!
//! * **round-robin** — stealing off, hints round-robined, no pacing.
//!   With a deterministic submission schedule and no stealing, every
//!   chunk lands on its hinted shard, so per-shard simulated time, the
//!   fleet makespan, and the spill census are pure functions of the
//!   workload and device model. These are the gated metrics.
//! * **steal-skew** — stealing on, 8/10 groups hinted at shard 0. Steal
//!   counts and wall clock are recorded in the artifact for
//!   trend-watching but never gated: which thief wins a race is
//!   scheduler timing, not modeled behavior.
//! * **hedge** — the round-robin schedule again with hedged dispatch
//!   *armed* but its delay floor set far above any chunk's latency, so
//!   no hedge ever fires: the pass prices the hedge bookkeeping
//!   (in-flight registration, slot claims) on the deterministic
//!   schedule. Its makespan and throughput are gated like round-robin's;
//!   the fired/won counters in its rows must stay zero.
//!
//! Results land in `BENCH_fleet.json` (schema `batsolv-bench/fleet/v1`).

use std::time::Duration;

use batsolv_fleet::HedgeConfig;

use batsolv_gpusim::DeviceSpec;
use batsolv_types::Result;
use batsolv_xgc::{VelocityGrid, XgcWorkload};

use super::json::{obj, Json};
use super::Metrics;
use crate::experiments::fleet::drive;

/// Shards in the perf fleet. Fixed across quick/full so the gate-metric
/// names (and the committed baseline) stay mode-independent.
pub const FLEET_DEVICES: usize = 4;

/// One per-device row of one pass.
pub struct FleetRow {
    /// `"round-robin"` (gated) or `"steal-skew"` (informational).
    pub mode: &'static str,
    /// Device label as it appears in the Prometheus series: the shard
    /// index for GPUs, `"cpu-pool"` for the spill pool.
    pub device_label: String,
    /// Device-model name behind the shard.
    pub profile: &'static str,
    /// Chunks this device executed.
    pub chunks: u64,
    /// Systems this device completed.
    pub completed: u64,
    /// Simulated busy time, milliseconds.
    pub sim_ms: f64,
    /// Per-shard throughput: completed systems per simulated second.
    pub systems_per_sim_s: f64,
    /// Chunks stolen from peers / lost to thieves.
    pub steals_in: u64,
    pub steals_out: u64,
    /// Chunks this device re-queued elsewhere after retryable failures.
    pub retries: u64,
    /// Hedge duplicates launched / won by this device.
    pub hedges_fired: u64,
    pub hedges_won: u64,
    /// Systems shed at dispatch (spent deadline budgets).
    pub shed: u64,
}

/// Everything the fleet sweep measured.
pub struct FleetSweep {
    pub devices: usize,
    pub systems: usize,
    pub rows: Vec<FleetRow>,
    /// Round-robin pass: slowest shard's simulated time (ms) — the
    /// fleet completes when its last device drains.
    pub makespan_ms: f64,
    /// Round-robin pass: summed simulated time across devices (ms).
    pub sim_total_ms: f64,
    /// Round-robin pass: fleet throughput, systems per simulated
    /// second of makespan.
    pub systems_per_sim_s: f64,
    /// Round-robin pass: systems spilled to the CPU pool.
    pub spilled: u64,
    /// Steal-skew pass: chunks stolen fleet-wide (informational).
    pub steals: u64,
    /// Steal-skew pass: host wall clock, ms (informational).
    pub wall_ms: f64,
    /// Hedge pass: slowest shard's simulated time (ms); gated like the
    /// round-robin makespan (the armed-but-idle hedge path must not
    /// cost simulated time).
    pub hedge_makespan_ms: f64,
    /// Hedge pass: fleet throughput over the makespan.
    pub hedge_systems_per_sim_s: f64,
    /// Hedge pass: hedges actually fired (deterministically zero — the
    /// delay floor exceeds every chunk latency by construction).
    pub hedge_fired: u64,
}

fn rows_for(mode: &'static str, snap: &batsolv_fleet::FleetSnapshot) -> Vec<FleetRow> {
    snap.shards
        .iter()
        .map(|s| (s, format!("{}", s.shard)))
        .chain(std::iter::once((&snap.cpu_pool, "cpu-pool".to_string())))
        .map(|(s, device_label)| FleetRow {
            mode,
            device_label,
            profile: s.device,
            chunks: s.chunks_executed,
            completed: s.completed,
            sim_ms: s.sim_time_s * 1e3,
            systems_per_sim_s: if s.sim_time_s > 0.0 {
                s.completed as f64 / s.sim_time_s
            } else {
                0.0
            },
            steals_in: s.steals_in,
            steals_out: s.steals_out,
            retries: s.retries,
            hedges_fired: s.hedges_fired,
            hedges_won: s.hedges_won,
            shed: s.shed,
        })
        .collect()
}

/// Run the fleet sweep.
pub fn run(quick: bool) -> Result<FleetSweep> {
    let pairs = if quick { 60 } else { 300 };
    let workload = XgcWorkload::generate(VelocityGrid::small(10, 9), pairs, 20220530)?;
    let systems = workload.num_systems();

    // Gated pass: deterministic schedule (no steal, no skew, no pacing).
    let rr = drive(&workload, FLEET_DEVICES, false, false, Duration::ZERO, None)?;
    // Informational pass: skewed arrivals with stealing on.
    let sk = drive(&workload, FLEET_DEVICES, true, true, Duration::ZERO, None)?;
    // Gated pass: the round-robin schedule with hedging armed but its
    // delay floor far above any chunk latency — nothing fires, so the
    // metrics stay deterministic while the hedge bookkeeping is priced.
    let hedge_cfg = HedgeConfig::enabled()
        .with_min_delay(Duration::from_millis(250))
        .with_p99_factor(4.0);
    let hg = drive(
        &workload,
        FLEET_DEVICES,
        false,
        false,
        Duration::ZERO,
        Some(hedge_cfg),
    )?;

    let mut rows = rows_for("round-robin", &rr.snap);
    rows.extend(rows_for("steal-skew", &sk.snap));
    rows.extend(rows_for("hedge", &hg.snap));

    let makespan_ms = rr.snap.makespan_s * 1e3;
    Ok(FleetSweep {
        devices: FLEET_DEVICES,
        systems,
        rows,
        makespan_ms,
        sim_total_ms: rr.snap.sim_time_total_s * 1e3,
        systems_per_sim_s: if rr.snap.makespan_s > 0.0 {
            rr.snap.completed() as f64 / rr.snap.makespan_s
        } else {
            0.0
        },
        spilled: rr.snap.spilled,
        steals: sk.snap.steals(),
        wall_ms: sk.wall.as_secs_f64() * 1e3,
        hedge_makespan_ms: hg.snap.makespan_s * 1e3,
        hedge_systems_per_sim_s: if hg.snap.makespan_s > 0.0 {
            hg.snap.completed() as f64 / hg.snap.makespan_s
        } else {
            0.0
        },
        hedge_fired: hg.snap.hedges_fired(),
    })
}

fn row_json(r: &FleetRow) -> Json {
    obj(vec![
        ("mode", Json::Str(r.mode.into())),
        ("device", Json::Str(r.device_label.clone())),
        ("profile", Json::Str(r.profile.into())),
        ("chunks", Json::Num(r.chunks as f64)),
        ("completed", Json::Num(r.completed as f64)),
        ("sim_ms", Json::Num(r.sim_ms)),
        ("systems_per_sim_s", Json::Num(r.systems_per_sim_s)),
        ("steals_in", Json::Num(r.steals_in as f64)),
        ("steals_out", Json::Num(r.steals_out as f64)),
        ("retries", Json::Num(r.retries as f64)),
        ("hedges_fired", Json::Num(r.hedges_fired as f64)),
        ("hedges_won", Json::Num(r.hedges_won as f64)),
        ("shed", Json::Num(r.shed as f64)),
    ])
}

impl FleetSweep {
    /// The `BENCH_fleet.json` document.
    pub fn to_json(&self, device: &DeviceSpec, quick: bool) -> Json {
        obj(vec![
            ("schema", Json::Str("batsolv-bench/fleet/v1".into())),
            ("quick", Json::Bool(quick)),
            ("device", Json::Str(device.name.into())),
            ("devices", Json::Num(self.devices as f64)),
            ("systems", Json::Num(self.systems as f64)),
            ("makespan_ms", Json::Num(self.makespan_ms)),
            ("sim_total_ms", Json::Num(self.sim_total_ms)),
            ("systems_per_sim_s", Json::Num(self.systems_per_sim_s)),
            ("spilled", Json::Num(self.spilled as f64)),
            ("steals", Json::Num(self.steals as f64)),
            ("wall_ms", Json::Num(self.wall_ms)),
            ("hedge_makespan_ms", Json::Num(self.hedge_makespan_ms)),
            (
                "hedge_systems_per_sim_s",
                Json::Num(self.hedge_systems_per_sim_s),
            ),
            ("hedge_fired", Json::Num(self.hedge_fired as f64)),
            (
                "results",
                Json::Arr(self.rows.iter().map(row_json).collect()),
            ),
        ])
    }

    /// Deterministic gate metrics: the round-robin pass only.
    pub fn gate_metrics(&self) -> (Metrics, Metrics) {
        let mut lower = vec![
            ("fleet.makespan_ms".to_string(), self.makespan_ms),
            ("fleet.sim_total_ms".to_string(), self.sim_total_ms),
        ];
        for r in self.rows.iter().filter(|r| r.mode == "round-robin") {
            let name = if r.device_label == "cpu-pool" {
                "fleet.cpu-pool.sim_ms".to_string()
            } else {
                format!("fleet.device{}.sim_ms", r.device_label)
            };
            lower.push((name, r.sim_ms));
        }
        lower.push((
            "fleet.hedge.makespan_ms".to_string(),
            self.hedge_makespan_ms,
        ));
        let higher = vec![
            (
                "fleet.systems_per_sim_s".to_string(),
                self.systems_per_sim_s,
            ),
            (
                "fleet.hedge.systems_per_sim_s".to_string(),
                self.hedge_systems_per_sim_s,
            ),
        ];
        (lower, higher)
    }
}
