//! The perf harness behind the `batsolv-bench` binary.
//!
//! Two sweeps over the 992-row XGC stencil workload:
//!
//! * [`spmv`] — SpMV across CSR/ELL/DIA in both value layouts: host wall
//!   medians (the autovectorization story) plus deterministic simulated
//!   device pricing (the coalescing story);
//! * [`solve`] — full batched BiCGSTAB solves, sequential vs concurrent
//!   execution through the runtime's `BatchExecutor` (the launch-fusion
//!   story);
//! * [`fleet`] — the same workload sharded over a multi-device
//!   `batsolv-fleet` range (the serving story: per-shard throughput,
//!   fleet makespan, CPU spill, steal counts);
//! * [`precond`] — BiCGSTAB under every rung of the batched
//!   preconditioner ladder on ion-like and electron-like fills (the
//!   iteration-reduction vs per-apply-barrier trade of batched ILU(0)).
//!
//! Results land in `BENCH_spmv.json` / `BENCH_solve.json` /
//! `BENCH_fleet.json` / `BENCH_precond.json`; the
//! deterministic subset is gated against the committed baseline in
//! `crates/bench/baselines/bench_baseline.json` by [`baseline`]. See
//! README "Benchmarking" for the schema.

pub mod baseline;
pub mod fleet;
pub mod json;
pub mod precond;
pub mod solve;
pub mod spmv;

use std::path::Path;

use batsolv_gpusim::DeviceSpec;
use batsolv_types::{Error, Result};

use self::baseline::{Baseline, Regression};
use self::json::Json;

/// Named gate metrics, `(key, value)`.
pub type Metrics = Vec<(String, f64)>;

/// Median of a sample vector (microseconds); sorts in place.
pub fn median_us(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of empty sample set");
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        0.5 * (samples[mid - 1] + samples[mid])
    }
}

/// Everything one `batsolv-bench` run produced.
pub struct PerfRun {
    pub spmv: spmv::SpmvSweep,
    pub solve: solve::SolveSweep,
    pub fleet: fleet::FleetSweep,
    pub precond: precond::PrecondSweep,
    pub device: DeviceSpec,
    pub quick: bool,
}

impl PerfRun {
    /// Execute both sweeps.
    pub fn execute(quick: bool) -> Result<PerfRun> {
        PerfRun::execute_with(quick, None)
    }

    /// Execute both sweeps, restricting the solver-variant rows to one
    /// named solver (plus its classical counterpart). A filtered run's
    /// gate metrics are incomplete, so the caller must skip the baseline
    /// check.
    pub fn execute_with(quick: bool, solver_filter: Option<&str>) -> Result<PerfRun> {
        let device = DeviceSpec::v100();
        Ok(PerfRun {
            spmv: spmv::run(&device, quick)?,
            solve: solve::run(&device, quick, solver_filter)?,
            fleet: fleet::run(quick)?,
            precond: precond::run(&device, quick)?,
            device,
            quick,
        })
    }

    /// Write `BENCH_spmv.json` and `BENCH_solve.json` into `out_dir`.
    pub fn write_artifacts(&self, out_dir: &Path) -> Result<()> {
        std::fs::create_dir_all(out_dir)?;
        std::fs::write(
            out_dir.join("BENCH_spmv.json"),
            self.spmv.to_json(&self.device, self.quick).pretty(),
        )?;
        std::fs::write(
            out_dir.join("BENCH_solve.json"),
            self.solve.to_json(&self.device, self.quick).pretty(),
        )?;
        std::fs::write(
            out_dir.join("BENCH_fleet.json"),
            self.fleet.to_json(&self.device, self.quick).pretty(),
        )?;
        std::fs::write(
            out_dir.join("BENCH_precond.json"),
            self.precond.to_json(&self.device, self.quick).pretty(),
        )?;
        Ok(())
    }

    /// The deterministic gate metrics of this run.
    pub fn gate_metrics(&self) -> (Metrics, Metrics) {
        let (mut lower, mut higher) = self.solve.gate_metrics();
        lower.extend(self.spmv.gate_metrics());
        let (fleet_lower, fleet_higher) = self.fleet.gate_metrics();
        lower.extend(fleet_lower);
        higher.extend(fleet_higher);
        let (precond_lower, precond_higher) = self.precond.gate_metrics();
        lower.extend(precond_lower);
        higher.extend(precond_higher);
        (lower, higher)
    }

    /// Gate against a baseline.
    pub fn check(&self, baseline: &Baseline, tolerance: Option<f64>) -> Vec<Regression> {
        let (lower, higher) = self.gate_metrics();
        baseline.check(&lower, &higher, tolerance)
    }

    /// A fresh baseline from this run.
    pub fn to_baseline(&self, tolerance: f64) -> Baseline {
        let (lower, higher) = self.gate_metrics();
        Baseline::from_metrics(tolerance, &lower, &higher)
    }
}

/// Validate an emitted `BENCH_*.json` artifact: parses, carries the
/// expected schema tag, and has a non-empty `results` array whose rows
/// contain every `required` field. Returns the number of result rows.
pub fn validate_artifact(path: &Path, schema: &str, required: &[&str]) -> Result<usize> {
    let text =
        std::fs::read_to_string(path).map_err(|e| Error::Io(format!("{}: {e}", path.display())))?;
    let doc = Json::parse(&text)?;
    if doc.get("schema").and_then(Json::as_str) != Some(schema) {
        return Err(Error::Io(format!(
            "{}: missing schema tag '{schema}'",
            path.display()
        )));
    }
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or_else(|| Error::Io(format!("{}: missing 'results' array", path.display())))?;
    if results.is_empty() {
        return Err(Error::Io(format!("{}: empty 'results'", path.display())));
    }
    for (i, row) in results.iter().enumerate() {
        for field in required {
            if row.get(field).is_none() {
                return Err(Error::Io(format!(
                    "{}: results[{i}] missing field '{field}'",
                    path.display()
                )));
            }
        }
    }
    Ok(results.len())
}

/// Required per-row fields of `BENCH_spmv.json`.
pub const SPMV_REQUIRED: &[&str] = &[
    "key",
    "format",
    "batch",
    "wall_median_us",
    "sim_us",
    "modeled_bandwidth_gbs",
    "lane_utilization",
];

/// Required per-row fields of `BENCH_fleet.json`.
pub const FLEET_REQUIRED: &[&str] = &[
    "mode",
    "device",
    "profile",
    "chunks",
    "completed",
    "sim_ms",
    "systems_per_sim_s",
    "steals_in",
    "steals_out",
    "retries",
    "hedges_fired",
    "hedges_won",
    "shed",
];

/// Required per-row fields of `BENCH_precond.json`.
pub const PRECOND_REQUIRED: &[&str] = &[
    "precond",
    "fill",
    "batch",
    "sim_ms",
    "syncs",
    "syncs_per_iteration",
    "max_iterations",
    "apply_syncs",
    "apply_sim_us",
    "all_converged",
];

/// Required per-row fields of `BENCH_solve.json`.
pub const SOLVE_REQUIRED: &[&str] = &[
    "solver",
    "matrix",
    "mode",
    "batch",
    "sim_ms",
    "launches",
    "syncs",
    "reductions",
    "syncs_per_iteration",
    "wall_median_ms",
    "systems_per_sim_s",
    "all_converged",
];
