//! Full-solve perf sweep: execution modes and solver variants.
//!
//! Two experiments over the 992-row XGC stencil:
//!
//! * **Mode pairs** — the same batched BiCGSTAB dispatched once as `N`
//!   single-system launches ([`ExecMode::Sequential`]) and once as one
//!   fused launch ([`ExecMode::Concurrent`]). The differential suite
//!   proves both produce bitwise-identical solutions, so the simulated
//!   device-time ratio is a genuine speedup — the paper's Figure 4/6
//!   batching argument, now a regression-gated number.
//! * **Solver variants** — every [`IterativeSolver`] implementation run
//!   through the concurrent executor at each batch size, so the
//!   synchronization/reduction pricing becomes a gated number too: the
//!   pipelined reformulations (1 sync/iteration for CG, 2 for BiCGSTAB)
//!   must beat their classical counterparts (3 and 6) in simulated
//!   device time. The CG family runs on an SPD-filled copy of the same
//!   stencil pattern (the XGC collision operator is nonsymmetric).
//!
//! DESIGN.md §5.4 derives the sync/reduction cost model these rows gate.

use std::sync::Arc;
use std::time::Instant;

use batsolv_formats::{BatchCsr, BatchEll, BatchMatrix, BatchVectors, SparsityPattern};
use batsolv_gpusim::DeviceSpec;
use batsolv_runtime::{BatchExecutor, ExecMode};
use batsolv_solvers::{
    BatchBicgstab, BatchCg, BatchCgs, BatchGmres, BatchRichardson, IterativeSolver, Jacobi,
    RelResidual,
};
use batsolv_types::{Error, Result};
use batsolv_xgc::{VelocityGrid, XgcWorkload};

use super::json::{obj, Json};
use super::{median_us, Metrics};

/// One measured (solver, mode, batch) cell.
#[derive(Clone, Debug)]
pub struct SolveCell {
    /// Solver-variant label (`"bicgstab"`, `"pipelined-cg"`, ...).
    pub solver: &'static str,
    /// Which matrix family the cell ran on (`"xgc"` or `"spd-stencil"`).
    pub matrix: &'static str,
    pub mode: ExecMode,
    pub batch: usize,
    /// Simulated device time of the whole batch solve, milliseconds.
    pub sim_ms: f64,
    /// Kernel launches the dispatch paid.
    pub launches: usize,
    /// Synchronization points paid across the solve (worst block).
    pub syncs: u64,
    /// Reduction trees performed (exposed + hidden with the SpMV).
    pub reductions: u64,
    /// Synchronization points per solver iteration — the quantity the
    /// pipelined variants reduce.
    pub syncs_per_iteration: f64,
    /// Median wall time of the whole batch solve, milliseconds.
    pub wall_ms: f64,
    /// Batch throughput in simulated time, systems per second.
    pub systems_per_sim_s: f64,
    /// Largest per-system iteration count.
    pub max_iterations: u32,
    /// Whether every system converged.
    pub all_converged: bool,
}

/// Sequential-vs-concurrent comparison at one batch size.
#[derive(Clone, Debug)]
pub struct SolvePair {
    pub sequential: SolveCell,
    pub concurrent: SolveCell,
}

impl SolvePair {
    /// Fused-over-loop speedup in simulated device time.
    pub fn speedup_sim(&self) -> f64 {
        self.sequential.sim_ms / self.concurrent.sim_ms.max(1e-30)
    }
}

/// One solver-variant row (always concurrent mode), with its speedup
/// over the classical counterpart when it has one.
#[derive(Clone, Debug)]
pub struct VariantCell {
    pub cell: SolveCell,
    /// Classical counterpart this variant is priced against
    /// (`pipelined-cg` → `cg`, ...); `None` for the classics themselves.
    pub classical: Option<&'static str>,
    /// Simulated-device-time speedup over that counterpart.
    pub speedup_vs_classical: Option<f64>,
}

/// The whole sweep.
#[derive(Clone, Debug)]
pub struct SolveSweep {
    pub rows: usize,
    pub pairs: Vec<SolvePair>,
    pub variants: Vec<VariantCell>,
}

fn cell_from_report(
    solver: &'static str,
    matrix: &'static str,
    mode: ExecMode,
    batch: usize,
    report: &batsolv_runtime::ExecReport,
    wall_ms: f64,
) -> SolveCell {
    SolveCell {
        solver,
        matrix,
        mode,
        batch,
        sim_ms: report.sim_time_s * 1e3,
        launches: report.launches,
        syncs: report.syncs,
        reductions: report.reductions,
        syncs_per_iteration: report.syncs_per_iteration,
        wall_ms,
        systems_per_sim_s: batch as f64 / report.sim_time_s.max(1e-30),
        max_iterations: report
            .per_system
            .iter()
            .map(|s| s.iterations)
            .max()
            .unwrap_or(0),
        all_converged: report.all_converged(),
    }
}

/// The device, executor mode and repetitions of one timed cell.
struct Runs<'a> {
    device: &'a DeviceSpec,
    mode: ExecMode,
    reps: usize,
}

fn run_one<S, M>(
    runs: Runs<'_>,
    label: &'static str,
    matrix: &'static str,
    solver: &S,
    a: &M,
    rhs: &BatchVectors<f64>,
    guess: &BatchVectors<f64>,
) -> Result<SolveCell>
where
    S: IterativeSolver<f64>,
    M: BatchMatrix<f64>,
{
    let Runs { device, mode, reps } = runs;
    let executor = BatchExecutor::new(device.clone(), mode);
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let mut x = guess.clone();
        let t0 = Instant::now();
        let report = executor.execute(solver, a, rhs, &mut x)?;
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        last = Some(report);
    }
    let report = last.ok_or_else(|| Error::InvalidConfig("solve sweep needs reps >= 1".into()))?;
    let batch = a.dims().num_systems;
    Ok(cell_from_report(
        label,
        matrix,
        mode,
        batch,
        &report,
        median_us(&mut samples) / 1e3,
    ))
}

/// SPD fill of the same 992-row stencil pattern, for the CG family. The
/// value function is symmetric in `(r, c)` and strictly diagonally
/// dominant, so every system is symmetric positive definite.
fn spd_stencil(batch: usize, nx: usize, ny: usize) -> Result<BatchEll<f64>> {
    let p = Arc::new(SparsityPattern::stencil_2d(nx, ny, true));
    let mut m = BatchCsr::zeros(batch, p)?;
    for i in 0..batch {
        let shift = 0.03 * (i % 11) as f64;
        m.fill_system(i, |r, c| {
            if r == c {
                9.5 + shift
            } else {
                -0.7 - 0.1 * ((r.min(c) + 2 * r.max(c)) % 5) as f64
            }
        });
    }
    BatchEll::from_csr(&m)
}

const MAX_ITERS: usize = 300;
const TOL: f64 = 1e-8;

/// Every solver-variant label the sweep knows, in sweep order.
pub const VARIANT_NAMES: &[&str] = &[
    "bicgstab",
    "bicgstab-fused",
    "pipelined-bicgstab",
    "cgs",
    "gmres",
    "richardson",
    "cg",
    "pipelined-cg",
];

/// Classical counterpart a reformulated variant is priced against.
fn counterpart(name: &str) -> Option<&'static str> {
    match name {
        "bicgstab-fused" | "pipelined-bicgstab" => Some("bicgstab"),
        "pipelined-cg" => Some("cg"),
        _ => None,
    }
}

fn run_variants(
    device: &DeviceSpec,
    ell: &BatchEll<f64>,
    w: &XgcWorkload,
    reps: usize,
    filter: Option<&str>,
) -> Result<Vec<VariantCell>> {
    let batch = ell.dims().num_systems;
    let stop = RelResidual::new(TOL);
    let mode = ExecMode::Concurrent;
    // `--solver X` keeps X plus its classical counterpart (the speedup
    // denominator); no filter keeps everything.
    let want = |name: &str| match filter {
        None => true,
        Some(f) => f == name || counterpart(f) == Some(name),
    };

    let mut cells = Vec::new();
    macro_rules! variant {
        ($name:literal, $matrix:literal, $solver:expr, $a:expr, $rhs:expr, $guess:expr) => {
            if want($name) {
                cells.push(run_one(
                    Runs { device, mode, reps },
                    $name,
                    $matrix,
                    &$solver,
                    $a,
                    $rhs,
                    $guess,
                )?);
            }
        };
    }

    // Nonsymmetric XGC systems: the BiCGSTAB family plus the other
    // general-matrix solvers.
    variant!(
        "bicgstab",
        "xgc",
        BatchBicgstab::new(Jacobi, stop).with_max_iters(MAX_ITERS),
        ell,
        &w.rhs,
        &w.warm_guess
    );
    variant!(
        "bicgstab-fused",
        "xgc",
        BatchBicgstab::new(Jacobi, stop)
            .with_max_iters(MAX_ITERS)
            .with_fused_axpy(true),
        ell,
        &w.rhs,
        &w.warm_guess
    );
    variant!(
        "pipelined-bicgstab",
        "xgc",
        batsolv_solvers::PipelinedBicgstab::new(Jacobi, stop).with_max_iters(MAX_ITERS),
        ell,
        &w.rhs,
        &w.warm_guess
    );
    variant!(
        "cgs",
        "xgc",
        BatchCgs::new(Jacobi, stop).with_max_iters(MAX_ITERS),
        ell,
        &w.rhs,
        &w.warm_guess
    );
    variant!(
        "gmres",
        "xgc",
        BatchGmres::new(Jacobi, stop, 30).with_max_iters(MAX_ITERS),
        ell,
        &w.rhs,
        &w.warm_guess
    );
    variant!(
        "richardson",
        "xgc",
        BatchRichardson::new(Jacobi, stop, 0.8).with_max_iters(MAX_ITERS),
        ell,
        &w.rhs,
        &w.warm_guess
    );

    // SPD fill of the same stencil for the CG family.
    if want("cg") || want("pipelined-cg") {
        let grid_nx = 32;
        let grid_ny = ell.dims().num_rows / grid_nx;
        let spd = spd_stencil(batch, grid_nx, grid_ny)?;
        let rhs = BatchVectors::from_fn(spd.dims(), |s, r| 1.0 + ((s * 7 + r) % 13) as f64 * 0.05);
        let guess = BatchVectors::zeros(spd.dims());
        variant!(
            "cg",
            "spd-stencil",
            BatchCg::new(Jacobi, stop).with_max_iters(MAX_ITERS),
            &spd,
            &rhs,
            &guess
        );
        variant!(
            "pipelined-cg",
            "spd-stencil",
            batsolv_solvers::PipelinedCg::new(Jacobi, stop).with_max_iters(MAX_ITERS),
            &spd,
            &rhs,
            &guess
        );
    }

    // Price each variant against its classical counterpart (same matrix,
    // same batch): fused/pipelined BiCGSTAB vs classical BiCGSTAB,
    // pipelined CG vs classical CG.
    let sim_of = |cells: &[SolveCell], name: &str| -> Option<f64> {
        cells.iter().find(|c| c.solver == name).map(|c| c.sim_ms)
    };
    Ok(cells
        .iter()
        .map(|c| {
            let classical = counterpart(c.solver);
            let speedup_vs_classical = classical
                .and_then(|base| sim_of(&cells, base))
                .map(|base_ms| base_ms / c.sim_ms.max(1e-30));
            VariantCell {
                cell: c.clone(),
                classical,
                speedup_vs_classical,
            }
        })
        .collect())
}

/// Run the sweep on the paper's ELL (column-major) fast path.
///
/// `solver_filter` (the binary's `--solver` flag) restricts the variant
/// sweep to one named solver plus its classical counterpart.
pub fn run(device: &DeviceSpec, quick: bool, solver_filter: Option<&str>) -> Result<SolveSweep> {
    if let Some(f) = solver_filter {
        if !VARIANT_NAMES.contains(&f) {
            return Err(Error::InvalidConfig(format!(
                "unknown solver '{f}'; known: {}",
                VARIANT_NAMES.join(", ")
            )));
        }
    }
    let pair_batches: &[usize] = if quick { &[8, 64] } else { &[8, 32, 64, 128] };
    let variant_batches: &[usize] = if quick { &[64] } else { &[8, 32, 64, 128] };
    let reps = if quick { 3 } else { 7 };
    let grid = VelocityGrid::xgc_standard();
    let rows = grid.num_nodes();

    let mut pairs = Vec::new();
    for &batch in pair_batches {
        let w = XgcWorkload::generate(grid, batch / 2, 99)?;
        let ell = w.ell()?;
        let solver = BatchBicgstab::new(Jacobi, RelResidual::new(TOL)).with_max_iters(MAX_ITERS);
        let cell = |mode| {
            let runs = Runs { device, mode, reps };
            run_one(
                runs,
                "bicgstab",
                "xgc",
                &solver,
                &ell,
                &w.rhs,
                &w.warm_guess,
            )
        };
        pairs.push(SolvePair {
            sequential: cell(ExecMode::Sequential)?,
            concurrent: cell(ExecMode::Concurrent)?,
        });
    }

    let variant_reps = if quick { 2 } else { 3 };
    let mut variants = Vec::new();
    for &batch in variant_batches {
        let w = XgcWorkload::generate(grid, batch / 2, 99)?;
        let ell = w.ell()?;
        variants.extend(run_variants(device, &ell, &w, variant_reps, solver_filter)?);
    }

    Ok(SolveSweep {
        rows,
        pairs,
        variants,
    })
}

fn cell_json(c: &SolveCell) -> Json {
    obj(vec![
        ("solver", Json::Str(c.solver.into())),
        ("matrix", Json::Str(c.matrix.into())),
        ("mode", Json::Str(c.mode.short_name().into())),
        ("batch", Json::Num(c.batch as f64)),
        ("sim_ms", Json::Num(c.sim_ms)),
        ("launches", Json::Num(c.launches as f64)),
        ("syncs", Json::Num(c.syncs as f64)),
        ("reductions", Json::Num(c.reductions as f64)),
        ("syncs_per_iteration", Json::Num(c.syncs_per_iteration)),
        ("wall_median_ms", Json::Num(c.wall_ms)),
        ("systems_per_sim_s", Json::Num(c.systems_per_sim_s)),
        ("max_iterations", Json::Num(c.max_iterations as f64)),
        ("all_converged", Json::Bool(c.all_converged)),
    ])
}

impl SolveSweep {
    /// The `BENCH_solve.json` document.
    pub fn to_json(&self, device: &DeviceSpec, quick: bool) -> Json {
        let results: Vec<Json> = self
            .pairs
            .iter()
            .flat_map(|p| [cell_json(&p.sequential), cell_json(&p.concurrent)])
            .chain(self.variants.iter().map(|v| cell_json(&v.cell)))
            .collect();
        let speedups: Vec<Json> = self
            .pairs
            .iter()
            .map(|p| {
                obj(vec![
                    ("batch", Json::Num(p.concurrent.batch as f64)),
                    ("sim", Json::Num(p.speedup_sim())),
                    (
                        "wall",
                        Json::Num(p.sequential.wall_ms / p.concurrent.wall_ms.max(1e-30)),
                    ),
                ])
            })
            .collect();
        let variant_speedups: Vec<Json> = self
            .variants
            .iter()
            .filter_map(|v| {
                let (classical, speedup) = (v.classical?, v.speedup_vs_classical?);
                Some(obj(vec![
                    ("solver", Json::Str(v.cell.solver.into())),
                    ("vs", Json::Str(classical.into())),
                    ("batch", Json::Num(v.cell.batch as f64)),
                    ("sim", Json::Num(speedup)),
                    ("syncs_per_iteration", Json::Num(v.cell.syncs_per_iteration)),
                ]))
            })
            .collect();
        obj(vec![
            ("schema", Json::Str("batsolv-bench/solve/v1".into())),
            ("quick", Json::Bool(quick)),
            ("device", Json::Str(device.name.into())),
            ("rows", Json::Num(self.rows as f64)),
            ("format", Json::Str("BatchEll".into())),
            ("results", Json::Arr(results)),
            ("speedup", Json::Arr(speedups)),
            ("variant_speedup", Json::Arr(variant_speedups)),
        ])
    }

    /// Deterministic metrics for the regression gate.
    pub fn gate_metrics(&self) -> (Metrics, Metrics) {
        let mut lower = Vec::new();
        let mut higher = Vec::new();
        for p in &self.pairs {
            let b = p.concurrent.batch;
            lower.push((format!("solve.sequential.b{b}.sim_ms"), p.sequential.sim_ms));
            lower.push((format!("solve.concurrent.b{b}.sim_ms"), p.concurrent.sim_ms));
            higher.push((format!("solve.b{b}.speedup_sim"), p.speedup_sim()));
        }
        for v in &self.variants {
            let (s, b) = (v.cell.solver, v.cell.batch);
            lower.push((format!("solve.{s}.b{b}.sim_ms"), v.cell.sim_ms));
            lower.push((
                format!("solve.{s}.b{b}.syncs_per_iter"),
                v.cell.syncs_per_iteration,
            ));
            if let Some(speedup) = v.speedup_vs_classical {
                higher.push((format!("solve.{s}.b{b}.speedup_vs_classical"), speedup));
            }
        }
        (lower, higher)
    }

    /// The ISSUE's acceptance bar, checked against this run directly
    /// (the baseline gate then keeps the numbers from regressing):
    /// pipelined variants must cut syncs/iteration and be >= `min_speedup`
    /// faster than their classical counterparts in simulated time at
    /// batch `at_batch`. Returns human-readable violations.
    pub fn acceptance_violations(&self, at_batch: usize, min_speedup: f64) -> Vec<String> {
        let mut violations = Vec::new();
        let find = |name: &str| {
            self.variants
                .iter()
                .find(|v| v.cell.solver == name && v.cell.batch == at_batch)
        };
        for (pipelined, classical) in [("pipelined-cg", "cg"), ("pipelined-bicgstab", "bicgstab")] {
            let (Some(p), Some(c)) = (find(pipelined), find(classical)) else {
                violations.push(format!(
                    "{pipelined}/{classical} rows missing at batch {at_batch}"
                ));
                continue;
            };
            match p.speedup_vs_classical {
                Some(s) if s >= min_speedup => {}
                Some(s) => violations.push(format!(
                    "{pipelined} is only {s:.2}x over {classical} at batch \
                     {at_batch} (need >= {min_speedup}x)"
                )),
                None => violations.push(format!("{pipelined} has no speedup row")),
            }
            if p.cell.syncs_per_iteration >= c.cell.syncs_per_iteration {
                violations.push(format!(
                    "{pipelined} pays {} syncs/iteration, not fewer than \
                     {classical}'s {}",
                    p.cell.syncs_per_iteration, c.cell.syncs_per_iteration
                ));
            }
        }
        violations
    }
}
