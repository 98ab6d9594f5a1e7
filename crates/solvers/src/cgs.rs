//! Batched CGS (conjugate gradient squared).
//!
//! Another member of the "several preconditionable iterative solvers"
//! family (Section IV.B). CGS squares the BiCG polynomial: it converges
//! roughly twice as fast per SpMV when it converges, but its residuals
//! oscillate wildly — van der Vorst designed BiCGSTAB precisely to damp
//! CGS's erratic behavior, which is why the paper (and our ablation)
//! lands on BiCGSTAB for the collision matrices.

use core::marker::PhantomData;

use batsolv_blas as blas;
use batsolv_blas::counts as bc;
use batsolv_blas::counts::MemSpace;
use batsolv_formats::{BatchMatrix, BatchVectors};
use batsolv_gpusim::DeviceSpec;
use batsolv_types::{OpCounts, Result, Scalar};

use crate::common::{
    launch, placed_spmv_counts, BatchKernel, BatchSolveReport, StageCosts, SyncProfile,
    SystemResult,
};
use crate::logger::{IterationLogger, NoopLogger};
use crate::precond::Preconditioner;
use crate::stop::StopCriterion;
use crate::workspace::{VectorClass, VectorSpec, WorkspacePlan};

/// Reduction barriers are priced separately via [`SyncProfile`].
const SETUP_STAGES: u64 = 4;
const ITER_STAGES: u64 = 10;
/// CGS: setup ‖r‖; per iteration ‖r‖, ρ=(r̂,r), σ=(r̂,v) — 3 exposed
/// reductions with their own barriers.
const SYNC: SyncProfile = SyncProfile {
    setup_syncs: 1,
    setup_reductions: 1,
    iter_syncs: 3,
    iter_reductions: 3,
    iter_hidden_reductions: 0,
};

/// CGS workspace: two SpMV pairs plus the BiCG auxiliaries.
const CGS_VECTORS: [VectorSpec; 7] = [
    VectorSpec::new("p_hat", VectorClass::SpMV),
    VectorSpec::new("v", VectorClass::SpMV),
    VectorSpec::new("uq_hat", VectorClass::SpMV),
    VectorSpec::new("r", VectorClass::Other),
    VectorSpec::new("r_hat", VectorClass::Other),
    VectorSpec::new("u", VectorClass::Other),
    VectorSpec::new("q", VectorClass::Other),
];

/// The batched CGS solver.
#[derive(Clone, Debug)]
pub struct BatchCgs<T, P, S> {
    /// Preconditioner.
    pub precond: P,
    /// Stopping criterion.
    pub stop: S,
    /// Iteration cap.
    pub max_iters: usize,
    _marker: PhantomData<T>,
}

impl<T, P, S> BatchCgs<T, P, S>
where
    T: Scalar,
    P: Preconditioner<T>,
    S: StopCriterion<T>,
{
    /// Solver with a 500-iteration cap.
    pub fn new(precond: P, stop: S) -> Self {
        BatchCgs {
            precond,
            stop,
            max_iters: 500,
            _marker: PhantomData,
        }
    }

    /// Override the iteration cap.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Solve the batch with `x` as initial guess; price on `device`.
    pub fn solve<M: BatchMatrix<T>>(
        &self,
        device: &DeviceSpec,
        a: &M,
        b: &BatchVectors<T>,
        x: &mut BatchVectors<T>,
    ) -> Result<BatchSolveReport> {
        launch(self, device, a, b, x, |_| NoopLogger)
    }
}

impl<T, P, S> BatchKernel<T> for BatchCgs<T, P, S>
where
    T: Scalar,
    P: Preconditioner<T>,
    S: StopCriterion<T>,
{
    const NAME: &'static str = "cgs";
    const VECTORS: &'static [VectorSpec] = &CGS_VECTORS;

    /// Per-block preconditioned CGS kernel (Sonneveld's algorithm).
    fn block<M, L>(&self, a: &M, i: usize, b: &[T], x: &mut [T], _: &mut L) -> SystemResult
    where
        M: BatchMatrix<T> + ?Sized,
        L: IterationLogger<T>,
    {
        let (precond, stop, max_iters) = (&self.precond, &self.stop, self.max_iters);
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
        let mut r = vec![T::ZERO; n];
        let mut r_hat = vec![T::ZERO; n];
        let mut p = vec![T::ZERO; n];
        let mut p_hat = vec![T::ZERO; n];
        let mut u = vec![T::ZERO; n];
        let mut uq_hat = vec![T::ZERO; n];
        let mut q = vec![T::ZERO; n];
        let mut v = vec![T::ZERO; n];

        a.spmv_system(i, x, &mut r);
        blas::sub_from(b, &mut r);
        blas::copy(&r, &mut r_hat);
        let bnorm = blas::nrm2(b);
        let res0 = blas::nrm2(&r);
        let mut res = res0;
        let mut rho_prev = T::ONE;

        for iter in 0..max_iters as u32 {
            if stop.is_converged(res, res0, bnorm) {
                return SystemResult {
                    iterations: iter,
                    residual: res.to_f64(),
                    converged: true,
                    breakdown: None,
                };
            }
            let rho = blas::dot(&r_hat, &r);
            if rho == T::ZERO || !rho.is_finite() {
                return SystemResult {
                    iterations: iter,
                    residual: res.to_f64(),
                    converged: false,
                    breakdown: Some("rho"),
                };
            }
            let beta = rho / rho_prev;
            // u = r + beta q; p = u + beta (q + beta p)
            for k in 0..n {
                u[k] = r[k] + beta * q[k];
                p[k] = u[k] + beta * (q[k] + beta * p[k]);
            }
            precond.apply(&pstate, &p, &mut p_hat);
            a.spmv_system(i, &p_hat, &mut v);
            let sigma = blas::dot(&r_hat, &v);
            if sigma == T::ZERO || !sigma.is_finite() {
                return SystemResult {
                    iterations: iter,
                    residual: res.to_f64(),
                    converged: false,
                    breakdown: Some("sigma"),
                };
            }
            let alpha = rho / sigma;
            // q = u - alpha v; correction = M^{-1}(u + q)
            for k in 0..n {
                q[k] = u[k] - alpha * v[k];
                uq_hat[k] = u[k] + q[k];
            }
            let uq = uq_hat.clone();
            precond.apply(&pstate, &uq, &mut uq_hat);
            a.spmv_system(i, &uq_hat, &mut v);
            for k in 0..n {
                x[k] += alpha * uq_hat[k];
                r[k] -= alpha * v[k];
            }
            res = blas::nrm2(&r);
            if !res.is_finite() {
                return SystemResult {
                    iterations: iter + 1,
                    residual: res.to_f64(),
                    converged: false,
                    breakdown: Some("divergence"),
                };
            }
            rho_prev = rho;
        }
        SystemResult {
            iterations: max_iters as u32,
            residual: res.to_f64(),
            converged: stop.is_converged(res, res0, bnorm),
            breakdown: None,
        }
    }

    fn stage_costs<M: BatchMatrix<T>>(
        &self,
        a: &M,
        device: &DeviceSpec,
        plan: &WorkspacePlan,
    ) -> StageCosts {
        let n = a.dims().num_rows;
        let w = device.warp_size;
        let sp = |name: &str| plan.space_of(name);
        let mut setup = OpCounts::ZERO;
        setup += placed_spmv_counts(a, w, MemSpace::Global, sp("r"));
        setup += bc::axpy_counts::<T>(n, MemSpace::Global, sp("r"), w);
        setup += bc::copy_counts::<T>(n, sp("r"), sp("r_hat"), w);
        setup.flops += self.precond.generate_flops(n, a.stored_per_system());
        setup += bc::nrm2_counts::<T>(n, sp("r"), w);

        // One CGS iteration: two SpMVs, two preconditioner applies,
        // two dots, and ~6 vector updates.
        let mut it = OpCounts::ZERO;
        it += bc::nrm2_counts::<T>(n, sp("r"), w);
        it += bc::dot_counts::<T>(n, sp("r_hat"), sp("r"), w);
        it += bc::axpby_counts::<T>(n, sp("q"), sp("u"), w);
        it += bc::axpby_counts::<T>(n, sp("v"), sp("p_hat"), w);
        it += bc::elementwise_counts::<T>(n, sp("p_hat"), MemSpace::Global, sp("p_hat"), w);
        it.flops += 2 * self.precond.apply_flops(n);
        it += placed_spmv_counts(a, w, sp("p_hat"), sp("v"));
        it += bc::dot_counts::<T>(n, sp("r_hat"), sp("v"), w);
        it += bc::axpby_counts::<T>(n, sp("v"), sp("q"), w);
        it += bc::axpby_counts::<T>(n, sp("u"), sp("uq_hat"), w);
        it += placed_spmv_counts(a, w, sp("uq_hat"), sp("v"));
        it += bc::axpy_counts::<T>(n, sp("uq_hat"), MemSpace::Global, w); // x
        it += bc::axpy_counts::<T>(n, sp("v"), sp("r"), w);

        let ro = 2 * (a.value_bytes_per_system() as u64 + a.shared_index_bytes() as u64);
        // Two preconditioner applies per iteration (û and q̂).
        let p_syncs = self.precond.apply_syncs(n);
        let p_stages = self.precond.apply_stages(n).saturating_sub(1);
        StageCosts {
            setup,
            per_iter: it,
            setup_stages: SETUP_STAGES,
            iter_stages: ITER_STAGES + 2 * p_stages,
            ro_req_per_iter: ro,
            sync: SYNC.with_precond_applies(2, p_syncs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicgstab::BatchBicgstab;
    use crate::precond::Jacobi;
    use crate::stop::AbsResidual;
    use batsolv_formats::{BatchCsr, SparsityPattern};
    use std::sync::Arc;

    fn batch(ns: usize) -> BatchCsr<f64> {
        let p = Arc::new(SparsityPattern::stencil_2d(9, 8, true));
        let mut m = BatchCsr::zeros(ns, p).unwrap();
        for i in 0..ns {
            m.fill_system(i, |r, c| {
                if r == c {
                    9.5 + 0.3 * i as f64
                } else {
                    -0.8 - 0.1 * ((r + 2 * c) % 3) as f64
                }
            });
        }
        m
    }

    #[test]
    fn cgs_solves_the_stencil_batch() {
        let m = batch(3);
        let xs = BatchVectors::from_fn(m.dims(), |s, r| (s as f64 + 1.0) * (r as f64 * 0.25).sin());
        let mut b = BatchVectors::zeros(m.dims());
        m.spmv(&xs, &mut b).unwrap();
        let mut x = BatchVectors::zeros(m.dims());
        let rep = BatchCgs::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&DeviceSpec::v100(), &m, &b, &mut x)
            .unwrap();
        assert!(rep.all_converged(), "{rep:?}");
        assert!(m.max_residual_norm(&x, &b).unwrap() < 1e-8);
        assert_eq!(rep.solver, "cgs");
    }

    #[test]
    fn cgs_converges_in_fewer_iterations_than_bicgstab_here() {
        // On well-conditioned systems CGS's squared polynomial often wins
        // on iteration count — its weakness is robustness, not speed.
        let m = batch(1);
        let b = BatchVectors::constant(m.dims(), 1.0);
        let dev = DeviceSpec::v100();
        let mut x1 = BatchVectors::zeros(m.dims());
        let cgs = BatchCgs::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&dev, &m, &b, &mut x1)
            .unwrap();
        let mut x2 = BatchVectors::zeros(m.dims());
        let bicg = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&dev, &m, &b, &mut x2)
            .unwrap();
        assert!(cgs.all_converged() && bicg.all_converged());
        assert!(cgs.max_iterations() <= bicg.max_iterations() + 3);
    }

    #[test]
    fn zero_guess_on_zero_rhs_is_instant() {
        let m = batch(1);
        let b = BatchVectors::zeros(m.dims());
        let mut x = BatchVectors::zeros(m.dims());
        let rep = BatchCgs::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&DeviceSpec::v100(), &m, &b, &mut x)
            .unwrap();
        assert!(rep.all_converged());
        assert_eq!(rep.max_iterations(), 0);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let m = batch(1);
        let b = BatchVectors::constant(m.dims(), 1.0);
        let mut x = BatchVectors::zeros(m.dims());
        let rep = BatchCgs::new(Jacobi, AbsResidual::new(1e-30))
            .with_max_iters(4)
            .solve(&DeviceSpec::v100(), &m, &b, &mut x)
            .unwrap();
        assert!(!rep.all_converged());
        assert_eq!(rep.max_iterations(), 4);
    }
}
