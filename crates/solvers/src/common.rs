//! Shared report types, cost-assembly helpers and the one launch shell
//! every batched solver runs in.

use batsolv_blas::counts::MemSpace;
use batsolv_formats::{BatchMatrix, BatchVectors};
use batsolv_gpusim::{
    run_batch_map_mut, BlockStats, DeviceSpec, KernelReport, SimKernel, TrafficProfile,
};
use batsolv_types::{OpCounts, Result, Scalar};

use crate::logger::IterationLogger;
use crate::workspace::{VectorSpec, WorkspacePlan};

/// Convergence record of one system of the batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemResult {
    /// Iterations the system ran.
    pub iterations: u32,
    /// Final residual norm.
    pub residual: f64,
    /// Whether the stop criterion was met.
    pub converged: bool,
    /// Krylov breakdown, if one occurred.
    pub breakdown: Option<&'static str>,
}

/// The result of one batched solve: per-system convergence plus the
/// simulated kernel timing and profiler metrics.
#[derive(Clone, Debug)]
pub struct BatchSolveReport {
    /// One record per system.
    pub per_system: Vec<SystemResult>,
    /// Simulated kernel pricing (time, warp utilization, cache hits).
    pub kernel: KernelReport,
    /// Workspace placement summary (e.g. `"6 shared (...) + 3 global"`).
    pub plan_description: String,
    /// Dynamic shared memory per block, bytes.
    pub shared_per_block: usize,
    /// Workspace vectors spilled to global memory, bytes per system —
    /// the planner's shared-memory spill decision (0 = fully fused).
    pub global_vector_bytes: usize,
    /// Solver name (`"bicgstab"`, ...).
    pub solver: &'static str,
    /// Matrix format name.
    pub format: &'static str,
    /// Device name.
    pub device: &'static str,
    /// Synchronization points per iteration — the quantity the pipelined
    /// variants reduce (classical BiCGSTAB 6, pipelined 2; classical CG 3,
    /// pipelined 1; direct solvers 0).
    pub syncs_per_iteration: f64,
}

impl BatchSolveReport {
    /// Largest per-system iteration count.
    pub fn max_iterations(&self) -> u32 {
        self.per_system
            .iter()
            .map(|s| s.iterations)
            .max()
            .unwrap_or(0)
    }

    /// Mean per-system iteration count.
    pub fn mean_iterations(&self) -> f64 {
        if self.per_system.is_empty() {
            return 0.0;
        }
        self.per_system
            .iter()
            .map(|s| s.iterations as f64)
            .sum::<f64>()
            / self.per_system.len() as f64
    }

    /// True when every system met the stop criterion.
    pub fn all_converged(&self) -> bool {
        self.per_system.iter().all(|s| s.converged)
    }

    /// Worst final residual over the batch.
    pub fn max_residual(&self) -> f64 {
        self.per_system
            .iter()
            .map(|s| s.residual)
            .fold(0.0f64, f64::max)
    }

    /// Simulated solve time, seconds.
    pub fn time_s(&self) -> f64 {
        self.kernel.time_s
    }

    /// Synchronization points on the solve's critical path.
    pub fn syncs(&self) -> u64 {
        self.kernel.syncs
    }

    /// Reductions (exposed + hidden) on the solve's critical path.
    pub fn reductions(&self) -> u64 {
        self.kernel.reductions
    }
}

/// Synchronization-point density of a solver: how many global barriers,
/// exposed tree reductions, and SpMV-hidden reductions one setup phase
/// and one iteration execute. The per-solve totals in [`BlockStats`]
/// scale the iteration terms by each system's iteration count.
#[derive(Clone, Copy, Debug, Default)]
pub struct SyncProfile {
    /// Barriers in the setup phase (initial residual norms, `(r̂,r)`).
    pub setup_syncs: u64,
    /// Exposed reductions in the setup phase.
    pub setup_reductions: u64,
    /// Barriers per iteration.
    pub iter_syncs: u64,
    /// Exposed reductions per iteration (each pays the full tree depth).
    pub iter_reductions: u64,
    /// Reductions per iteration fused into an SpMV — they pay only their
    /// barrier (the pipelined-solver trick).
    pub iter_hidden_reductions: u64,
}

impl SyncProfile {
    /// Barriers per iteration, as the ratio reported to benches/traces.
    pub fn syncs_per_iteration(&self) -> f64 {
        self.iter_syncs as f64
    }

    /// This profile with a preconditioner's own barriers folded in:
    /// `applies_per_iter` preconditioner applications per iteration, each
    /// paying `apply_syncs` barriers (0 for pointwise preconditioners,
    /// one per level boundary for level-scheduled triangular solves).
    pub fn with_precond_applies(mut self, applies_per_iter: u64, apply_syncs: u64) -> SyncProfile {
        self.iter_syncs += applies_per_iter * apply_syncs;
        self
    }
}

/// One solver's cost decomposition: operation counts and serialized-stage
/// counts for the setup phase and for one iteration, plus the cache
/// model's read-only traffic and the synchronization profile.
#[derive(Clone, Copy, Debug)]
pub struct StageCosts {
    /// One-time counts (initial residual, preconditioner setup).
    pub setup: OpCounts,
    /// Counts of one iteration.
    pub per_iter: OpCounts,
    /// Serialized stages in the setup phase.
    pub setup_stages: u64,
    /// Serialized stages per iteration (reduction barriers are *not*
    /// counted here — they are priced separately via `sync`).
    pub iter_stages: u64,
    /// Read-only (matrix + indices) bytes requested per iteration.
    pub ro_req_per_iter: u64,
    /// Synchronization-point density.
    pub sync: SyncProfile,
}

/// Enforce the solver result contract on one system's outcome:
///
/// * a reported breakdown always means `converged == false`;
/// * a NaN residual is normalized to `+inf` (orderable, unambiguous);
/// * the returned iterate never contains non-finite entries — if the
///   block left NaN/Inf in `x` (divergence, poisoned input), `x` is
///   restored to the pre-solve snapshot `x0` and the system is reported
///   as a `"nonfinite"` breakdown (unless a more specific tag exists).
///
/// Every batched solver funnels its per-block result through this guard,
/// so downstream layers (fallback ladders, services) can rely on the
/// invariant instead of re-scanning solutions.
pub fn sanitize_block_result<T: Scalar>(
    x0: &[T],
    x: &mut [T],
    mut r: SystemResult,
) -> SystemResult {
    if r.residual.is_nan() {
        r.residual = f64::INFINITY;
    }
    if r.breakdown.is_some() {
        r.converged = false;
    }
    if x.iter().any(|v| !v.is_finite()) {
        x.copy_from_slice(x0);
        r.converged = false;
        if r.breakdown.is_none() {
            r.breakdown = Some("nonfinite");
        }
        if r.residual.is_finite() {
            r.residual = f64::INFINITY;
        }
    }
    r
}

/// SpMV counts with the solver's vector placement applied: the `x` gather
/// and `y` write that the format booked as global traffic move to shared
/// when the workspace plan put those vectors in shared memory.
pub fn placed_spmv_counts<T: Scalar, M: BatchMatrix<T> + ?Sized>(
    a: &M,
    warp: u32,
    x_space: MemSpace,
    y_space: MemSpace,
) -> OpCounts {
    let mut c = a.spmv_counts(warp);
    if x_space == MemSpace::Shared {
        let xb = a.spmv_x_read_bytes();
        c.global_read_bytes = c.global_read_bytes.saturating_sub(xb);
        c.shared_read_bytes += xb;
    }
    if y_space == MemSpace::Shared {
        let yb = a.spmv_y_write_bytes();
        c.global_write_bytes = c.global_write_bytes.saturating_sub(yb);
        c.shared_write_bytes += yb;
    }
    c
}

/// Assemble the [`BlockStats`] of one system from the solver's cost
/// decomposition ([`StageCosts`]): setup counts plus `iterations ×`
/// per-iteration counts, serialized stages, read-only cache traffic, and
/// the synchronization totals the sync model prices.
pub fn assemble_block_stats<T: Scalar, M: BatchMatrix<T> + ?Sized>(
    a: &M,
    plan: &WorkspacePlan,
    result: &SystemResult,
    costs: &StageCosts,
) -> BlockStats {
    let n = a.dims().num_rows;
    let iters = result.iterations as u64;
    let counts = costs.setup + costs.per_iter * iters;
    let ro_working_set =
        (a.value_bytes_per_system() + a.shared_index_bytes() + n * T::BYTES) as u64;
    let ro_requested = ro_working_set + costs.ro_req_per_iter * iters;
    let total_global = counts.global_read_bytes + counts.global_write_bytes;
    let rw_requested = total_global.saturating_sub(ro_requested);
    let sync = &costs.sync;
    BlockStats {
        iterations: result.iterations,
        converged: result.converged,
        counts,
        dependent_steps: costs.setup_stages + costs.iter_stages * iters,
        syncs: sync.setup_syncs + sync.iter_syncs * iters,
        reductions: sync.setup_reductions + sync.iter_reductions * iters,
        hidden_reductions: sync.iter_hidden_reductions * iters,
        traffic: TrafficProfile {
            ro_working_set,
            shared_ro_working_set: a.shared_index_bytes() as u64,
            ro_requested,
            rw_working_set: plan.global_vector_bytes() as u64,
            rw_requested,
            write_once: (n * T::BYTES) as u64,
            shared_bytes: counts.shared_read_bytes + counts.shared_write_bytes,
        },
    }
}

/// What an iterative solver supplies to the launch shell: its name, its
/// workspace vectors, its per-system kernel and its cost decomposition.
/// [`launch`], [`run_numerics`] and [`price_results`] do the rest, the
/// same way for every solver.
pub(crate) trait BatchKernel<T: Scalar>: Sync {
    /// Solver name in reports and dimension errors.
    const NAME: &'static str;
    /// The workspace vectors the planner places in shared or global
    /// memory.
    const VECTORS: &'static [VectorSpec];

    /// Solve system `i` in place from the initial guess in `x`. Kernels
    /// that keep no residual history ignore `logger`.
    fn block<M, L>(&self, a: &M, i: usize, b: &[T], x: &mut [T], logger: &mut L) -> SystemResult
    where
        M: BatchMatrix<T> + ?Sized,
        L: IterationLogger<T>;

    /// Setup and per-iteration costs under the workspace `plan`.
    fn stage_costs<M: BatchMatrix<T>>(
        &self,
        a: &M,
        device: &DeviceSpec,
        plan: &WorkspacePlan,
    ) -> StageCosts;
}

/// The run half of the launch shell, shared with the direct solvers:
/// check `b` and `x` against `a`'s dims, then run `block(i, b_i, x_i)`
/// on every system (in parallel, results in batch order) and pass each
/// result through [`sanitize_block_result`] against a snapshot of the
/// incoming `x_i`.
pub(crate) fn run_blocks<T, M, F>(
    name: &str,
    a: &M,
    b: &BatchVectors<T>,
    x: &mut BatchVectors<T>,
    block: F,
) -> Result<Vec<SystemResult>>
where
    T: Scalar,
    M: BatchMatrix<T>,
    F: Fn(usize, &[T], &mut [T]) -> SystemResult + Sync + Send,
{
    let dims = a.dims();
    // The error context is formatted only on a mismatch, so a launch
    // allocates nothing for its checks.
    for (what, other) in [("b", b.dims()), ("x", x.dims())] {
        if other != dims {
            dims.ensure_same(&other, &format!("{name} {what}"))?;
        }
    }
    let chunks: Vec<&mut [T]> = x.systems_mut().collect();
    Ok(run_batch_map_mut(chunks, |i, xi| {
        let x0 = xi.to_vec();
        let r = block(i, b.system(i), xi);
        sanitize_block_result(&x0, xi, r)
    }))
}

/// Numeric phase of an iterative solver: every system's kernel runs
/// for real and updates its slice of `x`, with the logger
/// `make_logger(i)`; nothing is priced.
pub(crate) fn run_numerics<T, K, M, L, F>(
    solver: &K,
    a: &M,
    b: &BatchVectors<T>,
    x: &mut BatchVectors<T>,
    make_logger: F,
) -> Result<Vec<SystemResult>>
where
    T: Scalar,
    K: BatchKernel<T>,
    M: BatchMatrix<T>,
    L: IterationLogger<T>,
    F: Fn(usize) -> L + Sync + Send,
{
    run_blocks(K::NAME, a, b, x, |i, bi, xi| {
        solver.block(a, i, bi, xi, &mut make_logger(i))
    })
}

/// Pricing phase of an iterative solver: plan the workspace, turn the
/// solver's [`StageCosts`] into one [`BlockStats`] per record, and price
/// one launch of reduction width n on `device`. The records may be any
/// subset of a run over `a`: systems are independent, so a subset
/// prices consistently. The reported `syncs_per_iteration` is the
/// density of the profile the launch was priced with.
pub(crate) fn price_results<T, K, M>(
    solver: &K,
    device: &DeviceSpec,
    a: &M,
    results: Vec<SystemResult>,
) -> BatchSolveReport
where
    T: Scalar,
    K: BatchKernel<T>,
    M: BatchMatrix<T>,
{
    let n = a.dims().num_rows;
    let plan = WorkspacePlan::plan::<T>(device.shared_budget_bytes(), n, K::VECTORS);
    let costs = solver.stage_costs(a, device, &plan);
    let blocks: Vec<_> = results
        .iter()
        .map(|r| assemble_block_stats(a, &plan, r, &costs))
        .collect();
    let kernel = SimKernel::new(device, plan.shared_bytes)
        .with_reduction_width(n as u64)
        .price(&blocks);
    BatchSolveReport {
        per_system: results,
        kernel,
        plan_description: plan.describe(),
        shared_per_block: plan.shared_bytes,
        global_vector_bytes: plan.global_vector_bytes(),
        solver: K::NAME,
        format: a.format_name(),
        device: device.name,
        syncs_per_iteration: costs.sync.syncs_per_iteration(),
    }
}

/// One fused launch: [`run_numerics`], then [`price_results`] on
/// `device`.
pub(crate) fn launch<T, K, M, L, F>(
    solver: &K,
    device: &DeviceSpec,
    a: &M,
    b: &BatchVectors<T>,
    x: &mut BatchVectors<T>,
    make_logger: F,
) -> Result<BatchSolveReport>
where
    T: Scalar,
    K: BatchKernel<T>,
    M: BatchMatrix<T>,
    L: IterationLogger<T>,
    F: Fn(usize) -> L + Sync + Send,
{
    let results = run_numerics(solver, a, b, x, make_logger)?;
    Ok(price_results(solver, device, a, results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{WorkspacePlan, BICGSTAB_VECTORS};
    use batsolv_formats::{BatchCsr, SparsityPattern};
    use std::sync::Arc;

    fn csr() -> BatchCsr<f64> {
        let p = Arc::new(SparsityPattern::stencil_2d(8, 8, true));
        BatchCsr::zeros(1, p).unwrap()
    }

    #[test]
    fn placed_counts_move_gather_to_shared() {
        let m = csr();
        let g = placed_spmv_counts(&m, 32, MemSpace::Global, MemSpace::Global);
        let s = placed_spmv_counts(&m, 32, MemSpace::Shared, MemSpace::Shared);
        assert!(s.global_read_bytes < g.global_read_bytes);
        assert!(s.shared_read_bytes > 0);
        assert_eq!(s.global_write_bytes, 0);
        // Flops and lanes are placement-independent.
        assert_eq!(s.flops, g.flops);
        assert_eq!(s.lane_total, g.lane_total);
    }

    #[test]
    fn block_stats_scale_with_iterations() {
        let m = csr();
        let plan = WorkspacePlan::plan::<f64>(48 * 1024, 64, &BICGSTAB_VECTORS);
        let per_iter = m.spmv_counts(32);
        let setup = OpCounts::ZERO;
        let costs = StageCosts {
            setup,
            per_iter,
            setup_stages: 3,
            iter_stages: 14,
            ro_req_per_iter: 1000,
            sync: SyncProfile {
                setup_syncs: 2,
                setup_reductions: 2,
                iter_syncs: 6,
                iter_reductions: 4,
                iter_hidden_reductions: 2,
            },
        };
        let mk = |iters: u32| {
            assemble_block_stats(
                &m,
                &plan,
                &SystemResult {
                    iterations: iters,
                    residual: 1e-11,
                    converged: true,
                    breakdown: None,
                },
                &costs,
            )
        };
        let b5 = mk(5);
        let b30 = mk(30);
        assert_eq!(b30.counts.flops, 6 * b5.counts.flops);
        assert!(b30.dependent_steps > 5 * b5.dependent_steps);
        assert!(b30.traffic.ro_requested > 5 * b5.traffic.ro_requested / 6);
        // Sync totals scale with iterations on top of the setup constant.
        assert_eq!(b5.syncs, 2 + 6 * 5);
        assert_eq!(b30.syncs, 2 + 6 * 30);
        assert_eq!(b30.reductions, 2 + 4 * 30);
        assert_eq!(b30.hidden_reductions, 2 * 30);
    }

    #[test]
    fn report_aggregates() {
        let report = BatchSolveReport {
            per_system: vec![
                SystemResult {
                    iterations: 5,
                    residual: 1e-12,
                    converged: true,
                    breakdown: None,
                },
                SystemResult {
                    iterations: 30,
                    residual: 9e-11,
                    converged: true,
                    breakdown: None,
                },
            ],
            kernel: batsolv_gpusim::SimKernel::new(&batsolv_gpusim::DeviceSpec::v100(), 0)
                .price(&[]),
            plan_description: String::new(),
            shared_per_block: 0,
            global_vector_bytes: 0,
            solver: "bicgstab",
            format: "BatchCsr",
            device: "test",
            syncs_per_iteration: 6.0,
        };
        assert_eq!(report.max_iterations(), 30);
        assert!((report.mean_iterations() - 17.5).abs() < 1e-12);
        assert!(report.all_converged());
        assert!((report.max_residual() - 9e-11).abs() < 1e-25);
    }
}
