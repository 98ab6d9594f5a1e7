//! Batched BiCGSTAB — the paper's Algorithm 1 as a single fused kernel.
//!
//! One "thread block" solves one system: the entire iteration loop,
//! including preconditioner application, SpMVs, reductions, and the
//! per-system stopping test, executes in one kernel launch. The solver is
//! generic over the preconditioner, stopping criterion, and logger, which
//! is the Rust spelling of Ginkgo's
//! `apply_kernel<StopType, PrecType, LogType, BatchMatrixType>` template.

use core::marker::PhantomData;

use batsolv_blas as blas;
use batsolv_blas::counts as bc;
use batsolv_blas::counts::MemSpace;
use batsolv_formats::{BatchMatrix, BatchVectors};
use batsolv_gpusim::DeviceSpec;
use batsolv_types::{OpCounts, Result, Scalar};

use crate::common::{
    self, launch, placed_spmv_counts, BatchKernel, BatchSolveReport, StageCosts, SyncProfile,
    SystemResult,
};
use crate::logger::{IterationLogger, NoopLogger};
use crate::precond::Preconditioner;
use crate::stop::StopCriterion;
use crate::workspace::{VectorSpec, WorkspacePlan, BICGSTAB_VECTORS};

/// Serialized stages in the setup phase (initial residual, copy,
/// preconditioner generation). Reduction barriers are priced separately
/// via [`SyncProfile`].
const SETUP_STAGES: u64 = 3;
/// Serialized stages per BiCGSTAB iteration (Algorithm 1's dependent
/// vector operations; the 6 reduction barriers are priced via
/// [`SyncProfile`], not counted here).
const ITER_STAGES: u64 = 10;
/// Synchronization-point density of classical BiCGSTAB: 2 setup norms;
/// per iteration ‖r‖, ρ=(r̂,r), (r̂,v), ‖s‖, (t,s), (t,t) — 6 exposed
/// reductions, each with its own barrier.
const SYNC: SyncProfile = SyncProfile {
    setup_syncs: 2,
    setup_reductions: 2,
    iter_syncs: 6,
    iter_reductions: 6,
    iter_hidden_reductions: 0,
};
/// With the fused-AXPY path, (t,s) and (t,t) are computed in one fused
/// pass sharing a single barrier: 5 syncs/iteration, same 6 reductions.
const SYNC_FUSED: SyncProfile = SyncProfile {
    setup_syncs: 2,
    setup_reductions: 2,
    iter_syncs: 5,
    iter_reductions: 6,
    iter_hidden_reductions: 0,
};

/// The batched BiCGSTAB solver.
#[derive(Clone, Debug)]
pub struct BatchBicgstab<T, P, S> {
    /// Preconditioner (generated per system inside the kernel).
    pub precond: P,
    /// Stopping criterion, evaluated per system per iteration.
    pub stop: S,
    /// Iteration cap.
    pub max_iters: usize,
    /// Fused-AXPY path: merge the `x ← x + αp̂ + ωŝ` / `r ← s − ωt`
    /// updates into one vector pass and compute `(t,s)`,`(t,t)` under a
    /// single barrier. Bitwise-identical numerics, one less stage and one
    /// less sync per iteration.
    pub fused_axpy: bool,
    _marker: PhantomData<T>,
}

impl<T, P, S> BatchBicgstab<T, P, S>
where
    T: Scalar,
    P: Preconditioner<T>,
    S: StopCriterion<T>,
{
    /// Solver with the given components and a 500-iteration cap.
    pub fn new(precond: P, stop: S) -> Self {
        BatchBicgstab {
            precond,
            stop,
            max_iters: 500,
            fused_axpy: false,
            _marker: PhantomData,
        }
    }

    /// Override the iteration cap.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Enable the fused-AXPY path (merged vector updates, shared `(t,s)`
    /// / `(t,t)` barrier). Numerics are bitwise-identical to the classical
    /// path; only the simulated stage/sync pricing changes.
    pub fn with_fused_axpy(mut self, fused: bool) -> Self {
        self.fused_axpy = fused;
        self
    }

    /// Solve `A_i x_i = b_i` for every system, using the incoming `x` as
    /// the initial guess (the Picard warm start of Figure 8), and price
    /// the launch on `device`.
    pub fn solve<M: BatchMatrix<T>>(
        &self,
        device: &DeviceSpec,
        a: &M,
        b: &BatchVectors<T>,
        x: &mut BatchVectors<T>,
    ) -> Result<BatchSolveReport> {
        launch(self, device, a, b, x, |_| NoopLogger)
    }

    /// [`Self::solve`] with a per-system logger factory (residual traces).
    pub fn solve_logged<M, L, F>(
        &self,
        device: &DeviceSpec,
        a: &M,
        b: &BatchVectors<T>,
        x: &mut BatchVectors<T>,
        make_logger: F,
    ) -> Result<BatchSolveReport>
    where
        M: BatchMatrix<T>,
        L: IterationLogger<T>,
        F: Fn(usize) -> L + Sync + Send,
    {
        launch(self, device, a, b, x, make_logger)
    }

    /// Numeric phase only: every block runs for real (in parallel) and
    /// updates its slice of `x`; no device pricing. Useful when the same
    /// numeric run is to be priced on several devices or batch subsets
    /// (the Figure 6 sweep).
    pub fn run_numerics<M, L, F>(
        &self,
        a: &M,
        b: &BatchVectors<T>,
        x: &mut BatchVectors<T>,
        make_logger: F,
    ) -> Result<Vec<SystemResult>>
    where
        M: BatchMatrix<T>,
        L: IterationLogger<T>,
        F: Fn(usize) -> L + Sync + Send,
    {
        common::run_numerics(self, a, b, x, make_logger)
    }

    /// Pricing phase only: assemble per-block costs for the given
    /// convergence records (possibly a subset of a larger run — systems
    /// are independent, so any prefix/subset prices consistently) and
    /// price the launch on `device`.
    pub fn price_results<M: BatchMatrix<T>>(
        &self,
        device: &DeviceSpec,
        a: &M,
        results: Vec<SystemResult>,
    ) -> BatchSolveReport {
        common::price_results(self, device, a, results)
    }
}

impl<T, P, S> BatchKernel<T> for BatchBicgstab<T, P, S>
where
    T: Scalar,
    P: Preconditioner<T>,
    S: StopCriterion<T>,
{
    const NAME: &'static str = "bicgstab";
    const VECTORS: &'static [VectorSpec] = &BICGSTAB_VECTORS;

    fn block<M, L>(&self, a: &M, i: usize, b: &[T], x: &mut [T], logger: &mut L) -> SystemResult
    where
        M: BatchMatrix<T> + ?Sized,
        L: IterationLogger<T>,
    {
        let (precond, stop, cap) = (&self.precond, &self.stop, self.max_iters);
        bicgstab_block(a, i, b, x, precond, stop, cap, self.fused_axpy, logger)
    }

    fn stage_costs<M: BatchMatrix<T>>(
        &self,
        a: &M,
        device: &DeviceSpec,
        plan: &WorkspacePlan,
    ) -> StageCosts {
        let n = a.dims().num_rows;
        let w = device.warp_size;
        let nnz = a.stored_per_system();
        let sp = |name: &str| plan.space_of(name);

        // Setup: r = b - A x; r̂ = r; precond generate; ‖r‖, ‖b‖.
        let mut setup = OpCounts::ZERO;
        setup += placed_spmv_counts(a, w, sp("x"), sp("r"));
        setup += bc::axpy_counts::<T>(n, MemSpace::Global, sp("r"), w); // b - r
        setup += bc::copy_counts::<T>(n, sp("r"), sp("r_hat"), w);
        setup.flops += self.precond.generate_flops(n, nnz);
        setup.global_read_bytes += self.precond.state_bytes(n) as u64;
        setup += bc::nrm2_counts::<T>(n, sp("r"), w);
        setup += bc::nrm2_counts::<T>(n, MemSpace::Global, w); // ‖b‖

        // One iteration of Algorithm 1.
        let mut it = OpCounts::ZERO;
        it += bc::nrm2_counts::<T>(n, sp("r"), w); // convergence check
        it += bc::dot_counts::<T>(n, sp("r_hat"), sp("r"), w); // ρ
        it += bc::axpby_counts::<T>(n, sp("v"), sp("p"), w); // p ← p - ωv (scaled)
        it += bc::axpby_counts::<T>(n, sp("r"), sp("p"), w); // p ← r + βp
        it += bc::elementwise_counts::<T>(n, sp("p"), MemSpace::Global, sp("p_hat"), w);
        it.flops += self.precond.apply_flops(n);
        it += placed_spmv_counts(a, w, sp("p_hat"), sp("v"));
        it += bc::dot_counts::<T>(n, sp("r_hat"), sp("v"), w); // α denominator
        it += bc::axpby_counts::<T>(n, sp("v"), sp("s"), w); // s = r - αv
        it += bc::nrm2_counts::<T>(n, sp("s"), w);
        it += bc::elementwise_counts::<T>(n, sp("s"), MemSpace::Global, sp("s_hat"), w);
        it.flops += self.precond.apply_flops(n);
        it += placed_spmv_counts(a, w, sp("s_hat"), sp("t"));
        it += bc::dot_counts::<T>(n, sp("t"), sp("s"), w); // ω numerator
        it += bc::dot_counts::<T>(n, sp("t"), sp("t"), w); // ω denominator
        it += bc::axpy_counts::<T>(n, sp("p_hat"), sp("x"), w);
        it += bc::axpy_counts::<T>(n, sp("s_hat"), sp("x"), w);
        it += bc::axpby_counts::<T>(n, sp("t"), sp("r"), w); // r = s - ωt

        // Read-only traffic per iteration: matrix values + shared index
        // structure, touched by both SpMVs.
        let ro_req_per_iter =
            2 * (a.value_bytes_per_system() as u64 + a.shared_index_bytes() as u64);
        // Two preconditioner applies per iteration (p̂ and ŝ): a
        // level-scheduled apply adds its per-level barriers and stages.
        let p_syncs = self.precond.apply_syncs(n);
        let p_stages = self.precond.apply_stages(n).saturating_sub(1);
        StageCosts {
            setup,
            per_iter: it,
            setup_stages: SETUP_STAGES,
            iter_stages: if self.fused_axpy {
                ITER_STAGES - 1
            } else {
                ITER_STAGES
            } + 2 * p_stages,
            ro_req_per_iter,
            sync: if self.fused_axpy { SYNC_FUSED } else { SYNC }.with_precond_applies(2, p_syncs),
        }
    }
}

/// The per-block BiCGSTAB kernel: solves `A_i x = b` in place.
///
/// This is deliberately a single free function operating on slices — the
/// direct analogue of the device function a GPU thread block executes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bicgstab_block<T, M, P, S, L>(
    a: &M,
    i: usize,
    b: &[T],
    x: &mut [T],
    precond: &P,
    stop: &S,
    max_iters: usize,
    fused_axpy: bool,
    logger: &mut L,
) -> SystemResult
where
    T: Scalar,
    M: BatchMatrix<T> + ?Sized,
    P: Preconditioner<T>,
    S: StopCriterion<T>,
    L: IterationLogger<T>,
{
    let n = b.len();
    let pstate = match precond.generate(a, i) {
        Ok(s) => s,
        Err(_) => {
            return SystemResult {
                iterations: 0,
                residual: f64::INFINITY,
                converged: false,
                breakdown: Some("preconditioner"),
            }
        }
    };

    // Workspace (the 9 vectors of Algorithm 1; x is caller-provided).
    let mut r = vec![T::ZERO; n];
    let mut r_hat = vec![T::ZERO; n];
    let mut p = vec![T::ZERO; n];
    let mut p_hat = vec![T::ZERO; n];
    let mut v = vec![T::ZERO; n];
    let mut s = vec![T::ZERO; n];
    let mut s_hat = vec![T::ZERO; n];
    let mut t = vec![T::ZERO; n];

    // r = b - A x
    a.spmv_system(i, x, &mut r);
    blas::sub_from(b, &mut r);
    blas::copy(&r, &mut r_hat);

    let bnorm = blas::nrm2(b);
    // ‖r‖ and the next ρ = r̂·r come from one pass over r, here and at
    // the end of every iteration: two FMA chains, each summed as `dot`
    // sums it, that overlap in the pipeline.
    let (rr, mut rho_next) = blas::dot_pair(&r, &r, &r_hat, &r);
    let res0 = rr.sqrt();
    let mut res = res0;

    let mut rho_prev = T::ONE;
    let mut alpha = T::ONE;
    let mut omega = T::ONE;

    let finish = |iters: u32, res: T, converged: bool, breakdown, logger: &mut L| {
        logger.log_finish(iters, res, converged);
        SystemResult {
            iterations: iters,
            residual: res.to_f64(),
            converged,
            breakdown,
        }
    };

    for iter in 0..max_iters as u32 {
        if stop.is_converged(res, res0, bnorm) {
            return finish(iter, res, true, None, logger);
        }
        let rho = rho_next;
        if rho == T::ZERO || !rho.is_finite() {
            return finish(iter, res, false, Some("rho"), logger);
        }
        let beta = (rho / rho_prev) * (alpha / omega);
        // p ← r + β (p − ω v)
        for ((pk, &rk), &vk) in p.iter_mut().zip(&r).zip(&v) {
            *pk = rk + beta * (*pk - omega * vk);
        }
        precond.apply(&pstate, &p, &mut p_hat);
        a.spmv_system(i, &p_hat, &mut v);
        let rv = blas::dot(&r_hat, &v);
        if rv == T::ZERO || !rv.is_finite() {
            return finish(iter, res, false, Some("r_hat.v"), logger);
        }
        alpha = rho / rv;
        // s = r - α v
        for ((sk, &rk), &vk) in s.iter_mut().zip(&r).zip(&v) {
            *sk = rk - alpha * vk;
        }
        let snorm = blas::nrm2(&s);
        if stop.is_converged(snorm, res0, bnorm) {
            blas::axpy(alpha, &p_hat, x);
            logger.log_iteration(iter + 1, snorm);
            return finish(iter + 1, snorm, true, None, logger);
        }
        precond.apply(&pstate, &s, &mut s_hat);
        a.spmv_system(i, &s_hat, &mut t);
        let (ts, tt) = blas::dot_pair(&t, &s, &t, &t);
        if tt == T::ZERO || !tt.is_finite() {
            return finish(iter, snorm, false, Some("t.t"), logger);
        }
        omega = ts / tt;
        if omega == T::ZERO {
            return finish(iter, snorm, false, Some("omega"), logger);
        }
        // x ← x + α p̂ + ω ŝ ; r ← s − ω t. The fused path merges both
        // updates into one vector pass — IEEE-identical per element, so
        // the two paths produce bitwise-equal iterates.
        let x_update = |xk: &mut T, &ph: &T, &sh: &T| *xk = *xk + alpha * ph + omega * sh;
        let r_update = |rk: &mut T, &sk: &T, &tk: &T| *rk = sk - omega * tk;
        if fused_axpy {
            let xs = x.iter_mut().zip(&p_hat).zip(&s_hat);
            let rs = r.iter_mut().zip(&s).zip(&t);
            for (((xk, ph), sh), ((rk, sk), tk)) in xs.zip(rs) {
                x_update(xk, ph, sh);
                r_update(rk, sk, tk);
            }
        } else {
            for ((xk, ph), sh) in x.iter_mut().zip(&p_hat).zip(&s_hat) {
                x_update(xk, ph, sh);
            }
            for ((rk, sk), tk) in r.iter_mut().zip(&s).zip(&t) {
                r_update(rk, sk, tk);
            }
        }
        let (rr, rhat_r) = blas::dot_pair(&r, &r, &r_hat, &r);
        res = rr.sqrt();
        rho_next = rhat_r;
        if !res.is_finite() {
            return finish(iter + 1, res, false, Some("divergence"), logger);
        }
        logger.log_iteration(iter + 1, res);
        rho_prev = rho;
    }
    let converged = stop.is_converged(res, res0, bnorm);
    finish(max_iters as u32, res, converged, None, logger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{Identity, Jacobi};
    use crate::stop::AbsResidual;
    use batsolv_formats::{BatchCsr, BatchEll, SparsityPattern};
    use std::sync::Arc;

    /// A diagonally dominant nonsymmetric stencil batch with per-system
    /// variation — a miniature of the XGC matrices.
    fn stencil_batch(num_systems: usize, nx: usize, ny: usize) -> BatchCsr<f64> {
        let p = Arc::new(SparsityPattern::stencil_2d(nx, ny, true));
        let mut m = BatchCsr::zeros(num_systems, p).unwrap();
        for i in 0..num_systems {
            let shift = 0.05 * i as f64;
            m.fill_system(i, |r, c| {
                if r == c {
                    9.0 + shift
                } else {
                    // Nonsymmetric off-diagonals.
                    -0.8 - 0.15 * ((r * 3 + c) % 4) as f64
                }
            });
        }
        m
    }

    fn solve_and_check<M: BatchMatrix<f64>>(a: &M, tol: f64) -> BatchSolveReport {
        let dims = a.dims();
        let xs_true = BatchVectors::from_fn(dims, |s, r| ((s + 1) as f64) * (r as f64 * 0.3).sin());
        let mut b = BatchVectors::zeros(dims);
        a.spmv(&xs_true, &mut b).unwrap();
        let mut x = BatchVectors::zeros(dims);
        let solver = BatchBicgstab::new(Jacobi, AbsResidual::new(tol));
        let report = solver
            .solve(&DeviceSpec::v100(), a, &b, &mut x)
            .expect("solve");
        assert!(report.all_converged(), "not converged: {report:?}");
        // True residual, not just the recurrence residual.
        let true_res = a.max_residual_norm(&x, &b).unwrap();
        assert!(true_res < tol * 100.0, "true residual {true_res}");
        report
    }

    #[test]
    fn converges_on_csr_stencil() {
        let m = stencil_batch(4, 8, 7);
        let report = solve_and_check(&m, 1e-10);
        assert!(report.max_iterations() < 60);
        assert_eq!(report.format, "BatchCsr");
    }

    #[test]
    fn converges_on_ell_and_matches_csr_iterations() {
        let csr = stencil_batch(3, 6, 6);
        let ell = BatchEll::from_csr(&csr).unwrap();
        let r1 = solve_and_check(&csr, 1e-10);
        let r2 = solve_and_check(&ell, 1e-10);
        // Same numerics: identical iteration counts per system.
        for (a, b) in r1.per_system.iter().zip(r2.per_system.iter()) {
            assert_eq!(a.iterations, b.iterations);
        }
    }

    #[test]
    fn identity_preconditioner_also_converges() {
        let m = stencil_batch(2, 6, 5);
        let dims = m.dims();
        let b = BatchVectors::from_fn(dims, |_, r| 1.0 + (r % 3) as f64);
        let mut x = BatchVectors::zeros(dims);
        let solver = BatchBicgstab::new(Identity, AbsResidual::new(1e-10));
        let report = solver.solve(&DeviceSpec::v100(), &m, &b, &mut x).unwrap();
        assert!(report.all_converged());
        assert!(m.max_residual_norm(&x, &b).unwrap() < 1e-8);
    }

    #[test]
    fn jacobi_beats_identity_on_badly_scaled_systems() {
        // Scale each row by wildly different factors: Jacobi fixes this.
        let p = Arc::new(SparsityPattern::stencil_2d(8, 8, true));
        let mut m = BatchCsr::<f64>::zeros(1, p).unwrap();
        m.fill_system(0, |r, c| {
            let scale = 10f64.powi((r % 5) as i32);
            if r == c {
                9.0 * scale
            } else {
                -0.9 * scale
            }
        });
        let b = BatchVectors::from_fn(m.dims(), |_, r| (r as f64).cos());
        let dev = DeviceSpec::v100();

        let mut x1 = BatchVectors::zeros(m.dims());
        let rep_jac = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&dev, &m, &b, &mut x1)
            .unwrap();
        let mut x2 = BatchVectors::zeros(m.dims());
        let rep_id = BatchBicgstab::new(Identity, AbsResidual::new(1e-10))
            .with_max_iters(2000)
            .solve(&dev, &m, &b, &mut x2)
            .unwrap();
        assert!(rep_jac.max_iterations() <= rep_id.max_iterations());
    }

    #[test]
    fn warm_start_reduces_iterations() {
        // The Figure 8 effect: starting from a nearby solution converges
        // in fewer iterations than starting from zero.
        let m = stencil_batch(2, 8, 8);
        let dims = m.dims();
        let xs_true = BatchVectors::from_fn(dims, |_, r| (r as f64 * 0.1).cos());
        let mut b = BatchVectors::zeros(dims);
        m.spmv(&xs_true, &mut b).unwrap();
        let dev = DeviceSpec::v100();
        let solver = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10));

        let mut x_cold = BatchVectors::zeros(dims);
        let cold = solver.solve(&dev, &m, &b, &mut x_cold).unwrap();

        // Warm guess: true solution perturbed by 1e-6.
        let mut x_warm = BatchVectors::from_fn(dims, |_, r| {
            (r as f64 * 0.1).cos() + 1e-6 * (r as f64).sin()
        });
        let warm = solver.solve(&dev, &m, &b, &mut x_warm).unwrap();
        assert!(
            warm.max_iterations() < cold.max_iterations(),
            "warm {} vs cold {}",
            warm.max_iterations(),
            cold.max_iterations()
        );
        assert!(warm.time_s() < cold.time_s());
    }

    #[test]
    fn per_system_convergence_is_independent() {
        // Mix an easy (strongly dominant) and a hard (weakly dominant)
        // system: iteration counts must differ.
        let p = Arc::new(SparsityPattern::stencil_2d(8, 8, true));
        let mut m = BatchCsr::<f64>::zeros(2, p).unwrap();
        m.fill_system(0, |r, c| if r == c { 100.0 } else { -1.0 });
        m.fill_system(1, |r, c| if r == c { 8.2 } else { -1.0 });
        let b = BatchVectors::constant(m.dims(), 1.0);
        let mut x = BatchVectors::zeros(m.dims());
        let rep = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&DeviceSpec::v100(), &m, &b, &mut x)
            .unwrap();
        assert!(rep.per_system[0].iterations < rep.per_system[1].iterations);
    }

    #[test]
    fn iteration_cap_reports_unconverged() {
        let m = stencil_batch(1, 8, 8);
        let b = BatchVectors::constant(m.dims(), 1.0);
        let mut x = BatchVectors::zeros(m.dims());
        let rep = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-30))
            .with_max_iters(3)
            .solve(&DeviceSpec::v100(), &m, &b, &mut x)
            .unwrap();
        assert!(!rep.all_converged());
        assert_eq!(rep.max_iterations(), 3);
    }

    #[test]
    fn logger_records_monotonic_trend() {
        use crate::logger::ConvergenceHistory;
        use std::sync::Mutex;
        let m = stencil_batch(1, 8, 8);
        let b = BatchVectors::constant(m.dims(), 1.0);
        let mut x = BatchVectors::zeros(m.dims());
        let histories: Mutex<Vec<ConvergenceHistory<f64>>> = Mutex::new(vec![]);
        // Collect per-system histories via the logger factory.
        struct Collector<'a> {
            inner: ConvergenceHistory<f64>,
            sink: &'a Mutex<Vec<ConvergenceHistory<f64>>>,
        }
        impl IterationLogger<f64> for Collector<'_> {
            fn log_iteration(&mut self, it: u32, r: f64) {
                self.inner.log_iteration(it, r);
            }
            fn log_finish(&mut self, it: u32, r: f64, c: bool) {
                self.inner.log_finish(it, r, c);
                self.sink.lock().unwrap().push(self.inner.clone());
            }
        }
        let solver = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10));
        let _ = solver
            .solve_logged(&DeviceSpec::v100(), &m, &b, &mut x, |_| Collector {
                inner: ConvergenceHistory::default(),
                sink: &histories,
            })
            .unwrap();
        let hs = histories.into_inner().unwrap();
        assert_eq!(hs.len(), 1);
        let h = &hs[0];
        assert!(h.converged);
        assert!(h.mean_rate() < 1.0, "residuals should shrink");
        assert!(h.final_residual < 1e-10);
    }

    #[test]
    fn report_contains_simulated_timing() {
        let m = stencil_batch(64, 8, 8);
        let rep = solve_and_check(&m, 1e-10);
        assert!(rep.kernel.time_s > 0.0);
        assert!(rep.kernel.warp_utilization > 0.0);
        assert!(rep.plan_description.contains("shared"));
        assert_eq!(rep.per_system.len(), 64);
    }

    #[test]
    fn ell_is_simulated_faster_than_csr_at_scale() {
        // The Figure 6 headline: BatchEll beats BatchCsr for the stencil.
        let csr = stencil_batch(512, 32, 31);
        let ell = BatchEll::from_csr(&csr).unwrap();
        let b = BatchVectors::constant(csr.dims(), 1.0);
        let dev = DeviceSpec::v100();
        let solver = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10));
        let mut x1 = BatchVectors::zeros(csr.dims());
        let t_csr = solver.solve(&dev, &csr, &b, &mut x1).unwrap().time_s();
        let mut x2 = BatchVectors::zeros(csr.dims());
        let t_ell = solver.solve(&dev, &ell, &b, &mut x2).unwrap().time_s();
        assert!(t_ell < t_csr, "ELL {t_ell} must beat CSR {t_csr}");
    }
}
