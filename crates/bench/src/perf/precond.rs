//! Preconditioner-ladder perf sweep: BiCGSTAB under every rung of the
//! batched preconditioner ladder.
//!
//! One experiment over two 992-row stencil fills at batch 64:
//!
//! * **ion-like** — strongly diagonally dominant systems (the paper's
//!   ion collision operators converge in a handful of iterations), where
//!   pointwise Jacobi is already near-optimal and the heavier
//!   preconditioners only add per-apply cost;
//! * **electron-like** — weakly dominant systems (the iteration-bound
//!   electron band of Figure 2), where batched ILU(0) pays for its
//!   level-scheduled triangular solves by cutting the iteration count.
//!
//! The sweep prices ILU(0) honestly: each apply is a pair of batched
//! sparse triangular solves executed level by level, so it pays
//! `total_levels - 1` extra barriers per application
//! ([`Ilu0::apply_syncs`]), each costing [`sync_time_s`] on the modeled
//! device. The acceptance bar asserts both directions of the trade: the
//! electron-like iteration count must drop at least 2x under ILU(0)
//! versus the unpreconditioned run, *and* the simulated device model
//! must charge ILU(0) a strictly higher per-apply and per-iteration
//! sync cost than Jacobi — ILU(0) is not free.
//!
//! Results land in `BENCH_precond.json`; the deterministic subset is
//! gated against `crates/bench/baselines/bench_baseline.json`.

use std::sync::Arc;
use std::time::Instant;

use batsolv_formats::{BatchCsr, BatchEll, BatchMatrix, BatchVectors, SparsityPattern};
use batsolv_gpusim::{sync_time_s, DeviceSpec};
use batsolv_runtime::{BatchExecutor, ExecMode};
use batsolv_solvers::{
    BatchBicgstab, BlockJacobi, Identity, Ilu0, Jacobi, Preconditioner, RelResidual,
};
use batsolv_types::Result;

use super::json::{obj, Json};
use super::{median_us, Metrics};

const MAX_ITERS: usize = 300;
const TOL: f64 = 1e-8;

/// Every preconditioner label the sweep prices, in ladder order.
pub const PRECOND_NAMES: &[&str] = &["none", "jacobi", "block-jacobi", "ilu0"];

/// One measured (fill, preconditioner) cell, always batch 64 BiCGSTAB
/// through the concurrent executor.
#[derive(Clone, Debug)]
pub struct PrecondCell {
    /// Preconditioner label (`"none"`, `"jacobi"`, `"block-jacobi"`,
    /// `"ilu0"`).
    pub precond: &'static str,
    /// Which stencil fill the cell ran on (`"ion-like"` or
    /// `"electron-like"`).
    pub fill: &'static str,
    pub batch: usize,
    /// Simulated device time of the whole batch solve, milliseconds.
    pub sim_ms: f64,
    /// Synchronization points paid across the solve (worst block),
    /// including the per-level barriers of the triangular solves.
    pub syncs: u64,
    /// Synchronization points per solver iteration — where ILU(0)'s
    /// per-level barriers surface.
    pub syncs_per_iteration: f64,
    /// Largest per-system iteration count.
    pub max_iterations: u32,
    /// Barriers one preconditioner application pays: `total_levels - 1`
    /// for level-scheduled ILU(0), zero for the pointwise and
    /// block-diagonal preconditioners.
    pub apply_syncs: u64,
    /// Simulated cost of one preconditioner application's barriers,
    /// microseconds (`apply_syncs` x the device's sync latency).
    pub apply_sim_us: f64,
    /// Median wall time of the whole batch solve, milliseconds.
    pub wall_ms: f64,
    pub all_converged: bool,
}

/// The whole sweep.
#[derive(Clone, Debug)]
pub struct PrecondSweep {
    pub rows: usize,
    pub cells: Vec<PrecondCell>,
}

/// 9-point stencil fill with tunable diagonal dominance. `dominance` is
/// the ratio of the diagonal to the off-diagonal row sum: large values
/// converge in a handful of iterations (ion-like), values just above 1
/// are iteration-bound (electron-like). Values vary per system and per
/// row so no two systems in the batch are identical.
fn stencil_fill(
    batch: usize,
    nx: usize,
    ny: usize,
    dominance: f64,
) -> Result<(Arc<SparsityPattern>, BatchEll<f64>)> {
    let p = Arc::new(SparsityPattern::stencil_2d(nx, ny, true));
    let mut m = BatchCsr::zeros(batch, Arc::clone(&p))?;
    let row_nnz: Vec<f64> = (0..p.num_rows())
        .map(|r| {
            let (b, e) = p.row_range(r);
            (e - b - 1) as f64
        })
        .collect();
    for i in 0..batch {
        let shift = 0.004 * (i % 17) as f64;
        m.fill_system(i, |r, c| {
            if r == c {
                (dominance + shift) * row_nnz[r]
            } else {
                -1.0 - 0.05 * ((r.min(c) + 3 * r.max(c)) % 7) as f64 / 7.0
            }
        });
    }
    Ok((p, BatchEll::from_csr(&m)?))
}

fn run_cell<P: Preconditioner<f64>>(
    device: &DeviceSpec,
    precond_name: &'static str,
    fill_name: &'static str,
    precond: P,
    a: &BatchEll<f64>,
    rhs: &BatchVectors<f64>,
    reps: usize,
) -> Result<PrecondCell> {
    let n = a.dims().num_rows;
    let batch = a.dims().num_systems;
    let apply_syncs = precond.apply_syncs(n);
    let apply_sim_us = apply_syncs as f64 * sync_time_s(device) * 1e6;
    let solver = BatchBicgstab::new(precond, RelResidual::new(TOL)).with_max_iters(MAX_ITERS);
    let executor = BatchExecutor::new(device.clone(), ExecMode::Concurrent);
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let mut x = BatchVectors::zeros(a.dims());
        let t0 = Instant::now();
        let report = executor.execute(&solver, a, rhs, &mut x)?;
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        last = Some(report);
    }
    let report = last.expect("precond sweep needs reps >= 1");
    Ok(PrecondCell {
        precond: precond_name,
        fill: fill_name,
        batch,
        sim_ms: report.sim_time_s * 1e3,
        syncs: report.syncs,
        syncs_per_iteration: report.syncs_per_iteration,
        max_iterations: report
            .per_system
            .iter()
            .map(|s| s.iterations)
            .max()
            .unwrap_or(0),
        apply_syncs,
        apply_sim_us,
        wall_ms: median_us(&mut samples) / 1e3,
        all_converged: report.all_converged(),
    })
}

/// Run the sweep: BiCGSTAB x every ladder rung on both fills, batch 64.
pub fn run(device: &DeviceSpec, quick: bool) -> Result<PrecondSweep> {
    let (nx, ny) = (32, 31);
    let batch = 64;
    let reps = if quick { 2 } else { 5 };
    let mut cells = Vec::new();
    for (fill_name, dominance) in [("ion-like", 4.0), ("electron-like", 1.02)] {
        let (pattern, ell) = stencil_fill(batch, nx, ny, dominance)?;
        let rhs = BatchVectors::from_fn(ell.dims(), |s, r| {
            1.0 + ((s * 5 + 3 * r) % 11) as f64 * 0.04
        });
        cells.push(run_cell(
            device, "none", fill_name, Identity, &ell, &rhs, reps,
        )?);
        cells.push(run_cell(
            device, "jacobi", fill_name, Jacobi, &ell, &rhs, reps,
        )?);
        cells.push(run_cell(
            device,
            "block-jacobi",
            fill_name,
            BlockJacobi::new(4),
            &ell,
            &rhs,
            reps,
        )?);
        cells.push(run_cell(
            device,
            "ilu0",
            fill_name,
            Ilu0::new(Arc::clone(&pattern)),
            &ell,
            &rhs,
            reps,
        )?);
    }
    Ok(PrecondSweep {
        rows: nx * ny,
        cells,
    })
}

fn cell_json(c: &PrecondCell) -> Json {
    obj(vec![
        ("precond", Json::Str(c.precond.into())),
        ("fill", Json::Str(c.fill.into())),
        ("batch", Json::Num(c.batch as f64)),
        ("sim_ms", Json::Num(c.sim_ms)),
        ("syncs", Json::Num(c.syncs as f64)),
        ("syncs_per_iteration", Json::Num(c.syncs_per_iteration)),
        ("max_iterations", Json::Num(c.max_iterations as f64)),
        ("apply_syncs", Json::Num(c.apply_syncs as f64)),
        ("apply_sim_us", Json::Num(c.apply_sim_us)),
        ("wall_median_ms", Json::Num(c.wall_ms)),
        ("all_converged", Json::Bool(c.all_converged)),
    ])
}

impl PrecondSweep {
    fn find(&self, fill: &str, precond: &str) -> Option<&PrecondCell> {
        self.cells
            .iter()
            .find(|c| c.fill == fill && c.precond == precond)
    }

    /// The `BENCH_precond.json` document.
    pub fn to_json(&self, device: &DeviceSpec, quick: bool) -> Json {
        let results: Vec<Json> = self.cells.iter().map(cell_json).collect();
        // Iteration-reduction summary of every preconditioner against
        // the unpreconditioned run on the same fill.
        let mut reductions = Vec::new();
        for fill in ["ion-like", "electron-like"] {
            let Some(base) = self.find(fill, "none") else {
                continue;
            };
            for c in self.cells.iter().filter(|c| c.fill == fill) {
                if c.precond == "none" {
                    continue;
                }
                reductions.push(obj(vec![
                    ("fill", Json::Str(fill.into())),
                    ("precond", Json::Str(c.precond.into())),
                    (
                        "iteration_reduction",
                        Json::Num(base.max_iterations as f64 / (c.max_iterations as f64).max(1.0)),
                    ),
                ]));
            }
        }
        obj(vec![
            ("schema", Json::Str("batsolv-bench/precond/v1".into())),
            ("quick", Json::Bool(quick)),
            ("device", Json::Str(device.name.into())),
            ("rows", Json::Num(self.rows as f64)),
            ("solver", Json::Str("bicgstab".into())),
            ("results", Json::Arr(results)),
            ("iteration_reduction", Json::Arr(reductions)),
        ])
    }

    /// Deterministic metrics for the regression gate. Iteration counts,
    /// sync totals, and per-apply pricing are all exact replays of the
    /// device model, so they gate at the default tolerance.
    pub fn gate_metrics(&self) -> (Metrics, Metrics) {
        let mut lower = Vec::new();
        let mut higher = Vec::new();
        for c in &self.cells {
            let (f, p) = (c.fill, c.precond);
            lower.push((
                format!("precond.{f}.{p}.max_iterations"),
                c.max_iterations as f64,
            ));
            lower.push((format!("precond.{f}.{p}.sim_ms"), c.sim_ms));
        }
        if let (Some(base), Some(ilu)) = (
            self.find("electron-like", "none"),
            self.find("electron-like", "ilu0"),
        ) {
            higher.push((
                "precond.electron-like.ilu0.iteration_reduction".into(),
                base.max_iterations as f64 / (ilu.max_iterations as f64).max(1.0),
            ));
        }
        (lower, higher)
    }

    /// The ISSUE's acceptance bar, checked against this run directly:
    /// ILU(0) must cut the electron-like iteration count at least
    /// `min_reduction`x versus the unpreconditioned run at batch 64, and
    /// the device model must charge its level-scheduled applies a
    /// strictly higher sync cost than Jacobi's (per apply *and* per
    /// solver iteration). Returns human-readable violations.
    pub fn acceptance_violations(&self, min_reduction: f64) -> Vec<String> {
        let mut violations = Vec::new();
        for precond in ["none", "jacobi", "ilu0"] {
            if self.find("electron-like", precond).is_none() {
                violations.push(format!("missing (electron-like, {precond}) row"));
            }
        }
        if let (Some(base), Some(ilu)) = (
            self.find("electron-like", "none"),
            self.find("electron-like", "ilu0"),
        ) {
            let reduction = base.max_iterations as f64 / (ilu.max_iterations as f64).max(1.0);
            if reduction < min_reduction {
                violations.push(format!(
                    "ilu0 cuts electron-like iterations only {reduction:.2}x \
                     ({} -> {}, need >= {min_reduction}x)",
                    base.max_iterations, ilu.max_iterations
                ));
            }
            if !ilu.all_converged {
                violations.push("ilu0 electron-like run did not converge".into());
            }
        }
        if let (Some(jac), Some(ilu)) = (
            self.find("electron-like", "jacobi"),
            self.find("electron-like", "ilu0"),
        ) {
            if ilu.apply_sim_us <= jac.apply_sim_us {
                violations.push(format!(
                    "ilu0 apply sim time {:.3} us is not above jacobi's {:.3} us — \
                     the model is not charging the per-level barriers",
                    ilu.apply_sim_us, jac.apply_sim_us
                ));
            }
            if ilu.syncs_per_iteration <= jac.syncs_per_iteration {
                violations.push(format!(
                    "ilu0 pays {} syncs/iteration, not more than jacobi's {}",
                    ilu.syncs_per_iteration, jac.syncs_per_iteration
                ));
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_meets_the_acceptance_bar() {
        let device = DeviceSpec::v100();
        let sweep = run(&device, true).expect("sweep");
        assert_eq!(sweep.cells.len(), 2 * PRECOND_NAMES.len());
        for c in &sweep.cells {
            println!(
                "{:13} {:12} iters {:3} sim {:8.3} ms syncs/iter {:5.1} apply {:6.3} us",
                c.fill,
                c.precond,
                c.max_iterations,
                c.sim_ms,
                c.syncs_per_iteration,
                c.apply_sim_us
            );
            assert!(
                c.all_converged,
                "({}, {}) did not converge",
                c.fill, c.precond
            );
        }
        let violations = sweep.acceptance_violations(2.0);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
