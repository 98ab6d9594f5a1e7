//! One batched linear solve through the public per-crate calls, and the
//! kernel probes that run beside it: `formats` (CSR→ELL, SpMV), `solvers`
//! (numeric phase), `gpusim` (pricing, empty launch, executor modes).

use std::time::{Duration, Instant};

use batsolv_formats::{BatchCsr, BatchEll, BatchMatrix, BatchVectors};
use batsolv_gpusim::{run_batch, DeviceSpec};
use batsolv_runtime::{BatchExecutor, ExecMode};
use batsolv_solvers::{AbsResidual, BatchBicgstab, BatchSolveReport, Jacobi, NoopLogger};
use batsolv_types::Result;

use crate::report::{mean, median, residual_norm, residual_ok, timed, us, Outcome, RESIDUAL_SLACK};
use crate::spans::Recorder;

/// The paper's production solver: BiCGSTAB + scalar Jacobi, absolute
/// residual tolerance.
pub type Solver = BatchBicgstab<f64, Jacobi, AbsResidual<f64>>;

pub fn solver(tol: f64) -> Solver {
    BatchBicgstab::new(Jacobi, AbsResidual::new(tol))
}

/// What one batched solve left behind for the checks and the layer
/// metrics.
pub struct SolveRecord {
    pub ell: BatchEll<f64>,
    pub report: BatchSolveReport,
}

/// CSR→ELL, numeric phase, pricing: the calls `CollisionProxy::run_picard`
/// makes for one `BicgstabEll` solve, each inside its own span.
pub fn ell_solve(
    rec: &mut Recorder,
    request: u64,
    device: &DeviceSpec,
    solver: &Solver,
    csr: &BatchCsr<f64>,
    rhs: &BatchVectors<f64>,
    x: &mut BatchVectors<f64>,
) -> Result<SolveRecord> {
    let ell = rec.time("formats.to_ell", request, || BatchEll::from_csr(csr))?;
    let results = rec.time("solvers.run_numerics", request, || {
        solver.run_numerics(&ell, rhs, x, |_| NoopLogger)
    })?;
    let report = rec.time("gpusim.price", request, || {
        solver.price_results(device, &ell, results)
    });
    Ok(SolveRecord { ell, report })
}

/// Largest recomputed `‖b − Ax‖₂` over the batch; every system above
/// `RESIDUAL_SLACK · tol` is a correctness miss.
pub fn check_residuals(
    out: &mut Outcome,
    what: &str,
    tol: f64,
    a: &impl BatchMatrix<f64>,
    rhs: &BatchVectors<f64>,
    x: &BatchVectors<f64>,
) -> f64 {
    let mut worst = 0.0f64;
    for i in 0..a.dims().num_systems {
        let r = residual_norm(
            |xi, yi| a.spmv_system(i, xi, yi),
            rhs.system(i),
            x.system(i),
        );
        if !residual_ok(r, tol) {
            out.miss(format!(
                "{what}: system {i} true residual {r:.3e} > {RESIDUAL_SLACK} x {tol:.0e}"
            ));
        }
        worst = worst.max(r);
    }
    worst
}

/// `solvers.*` and `gpusim.*` pricing metrics over every recorded solve
/// (and the spans around them), plus `formats.to_ell_ms`.
pub fn solve_layer_metrics(out: &mut Outcome, rec: &Recorder, solves: &[SolveRecord]) {
    let solve_ms = rec.durations_ms("solvers.run_numerics");
    let sys_iters: u64 = solves
        .iter()
        .flat_map(|s| s.report.per_system.iter())
        .map(|r| u64::from(r.iterations))
        .sum();
    let iters_mean = mean(
        &solves
            .iter()
            .map(|s| s.report.mean_iterations())
            .collect::<Vec<_>>(),
    );
    let iters_max = solves
        .iter()
        .map(|s| s.report.max_iterations())
        .max()
        .unwrap_or(0);
    let sim_us_per_sys: Vec<f64> = solves
        .iter()
        .map(|s| s.report.time_s() * 1e6 / s.report.per_system.len().max(1) as f64)
        .collect();
    let syncs_per_iter: Vec<f64> = solves
        .iter()
        .map(|s| s.report.syncs() as f64 / f64::from(s.report.max_iterations().max(1)))
        .collect();
    let sim_total: f64 = solves.iter().map(|s| s.report.time_s()).sum();
    let sync_total: f64 = solves.iter().map(|s| s.report.kernel.sync_s).sum();
    out.layer(
        "formats.to_ell_ms",
        median(&rec.durations_ms("formats.to_ell")),
        "ms",
    );
    out.layer("solvers.solve_ms", median(&solve_ms), "ms");
    out.layer(
        "solvers.us_per_iter",
        solve_ms.iter().sum::<f64>() * 1e3 / sys_iters.max(1) as f64,
        "us",
    );
    out.layer("solvers.iters_mean", iters_mean, "count");
    out.layer("solvers.iters_max", f64::from(iters_max), "count");
    out.layer(
        "gpusim.price_us",
        median(&rec.durations_ms("gpusim.price")) * 1e3,
        "us",
    );
    out.layer("gpusim.sim_us_per_sys", median(&sim_us_per_sys), "us");
    out.layer("gpusim.syncs_per_iter", median(&syncs_per_iter), "count");
    out.layer(
        "gpusim.sim_sync_share",
        if sim_total > 0.0 {
            sync_total / sim_total
        } else {
            0.0
        },
        "ratio",
    );
}

/// Kernel probes on one batch, outside any timed operation: one
/// `BatchMatrix::spmv` (and its computed bandwidth), an empty
/// `run_batch` over the batch's block count, and the `BatchExecutor`
/// sequential ÷ concurrent wall-time ratio.
pub fn kernel_probes(
    out: &mut Outcome,
    rec: &mut Recorder,
    device: &DeviceSpec,
    solver: &Solver,
    ell: &BatchEll<f64>,
    rhs: &BatchVectors<f64>,
    guess: &BatchVectors<f64>,
) -> Result<()> {
    let blocks = ell.dims().num_systems;
    let mut y = BatchVectors::zeros(ell.dims());
    let mut spmv_us = Vec::new();
    for _ in 0..25 {
        let (r, d) = timed(|| rec.time("formats.spmv", u64::MAX, || ell.spmv(guess, &mut y)));
        r?;
        spmv_us.push(us(d));
    }
    let spmv_us = median(&spmv_us);
    let c = ell.spmv_counts(device.warp_size);
    let bytes = (c.global_read_bytes + c.global_write_bytes) as f64 * blocks as f64;
    out.layer("formats.spmv_us", spmv_us, "us");
    out.layer("formats.spmv_gbs", bytes / (spmv_us * 1e-6) / 1e9, "GB/s");

    let launch_us: Vec<f64> = (0..200)
        .map(|_| {
            let (_, d) = timed(|| {
                rec.time("gpusim.run_batch_empty", u64::MAX, || {
                    std::hint::black_box(run_batch(blocks, |i| i))
                })
            });
            us(d)
        })
        .collect();
    out.layer("gpusim.launch_us", median(&launch_us), "us");

    let mut ratios = Vec::new();
    for _ in 0..3 {
        let mut walls = [Duration::ZERO; 2];
        for (k, mode) in [ExecMode::Sequential, ExecMode::Concurrent]
            .into_iter()
            .enumerate()
        {
            let exec = BatchExecutor::new(device.clone(), mode);
            let mut x = guess.clone();
            let t = Instant::now();
            let name = if k == 0 {
                "gpusim.exec_sequential"
            } else {
                "gpusim.exec_concurrent"
            };
            rec.time(name, u64::MAX, || exec.execute(solver, ell, rhs, &mut x))?;
            walls[k] = t.elapsed();
        }
        ratios.push(walls[0].as_secs_f64() / walls[1].as_secs_f64());
    }
    out.layer("gpusim.par_speedup", median(&ratios), "ratio");
    Ok(())
}
