//! Batched pipelined CG (Ghysels–Vanroose recurrences).
//!
//! Classical CG pays three reduction barriers per iteration — `(p,q)`,
//! `‖r‖`, `(r,z)` — each a full stop of the block. The pipelined
//! reformulation (Ghysels & Vanroose; Rupp et al.'s kernel-fusion
//! variant) rewrites the recurrences so all three quantities are read
//! from a *single* fused reduction, computed while the iteration's only
//! SpMV is in flight: one synchronization point per iteration instead of
//! three, at the price of six extra recurrence vectors and slightly
//! different rounding (the recurrence residual can drift from the true
//! residual; the metamorphic tests bound that drift).

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
use crate::workspace::{VectorSpec, WorkspacePlan, PIPELINED_CG_VECTORS};

/// Setup: residual, two SpMV-class applications, fused initial reduction.
const SETUP_STAGES: u64 = 4;
/// One pipelined iteration: precondition, SpMV, one fused recurrence
/// update pass, one fused vector update pass — the reductions overlap
/// the SpMV, so they add no serialized stage.
const ITER_STAGES: u64 = 6;
/// The pipelined profile: one barrier per iteration; the γ/δ/‖r‖ tree is
/// fused into the SpMV (hidden), so only the sync cost remains.
const SYNC: SyncProfile = SyncProfile {
    setup_syncs: 1,
    setup_reductions: 1,
    iter_syncs: 1,
    iter_reductions: 0,
    iter_hidden_reductions: 1,
};

/// The batched pipelined CG solver.
#[derive(Clone, Debug)]
pub struct PipelinedCg<T, P, S> {
    /// Preconditioner.
    pub precond: P,
    /// Stopping criterion.
    pub stop: S,
    /// Iteration cap.
    pub max_iters: usize,
    _marker: PhantomData<T>,
}

impl<T, P, S> PipelinedCg<T, P, S>
where
    T: Scalar,
    P: Preconditioner<T>,
    S: StopCriterion<T>,
{
    /// Solver with a 500-iteration cap.
    pub fn new(precond: P, stop: S) -> Self {
        PipelinedCg {
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

impl<T, P, S> BatchKernel<T> for PipelinedCg<T, P, S>
where
    T: Scalar,
    P: Preconditioner<T>,
    S: StopCriterion<T>,
{
    const NAME: &'static str = "pipelined-cg";
    const VECTORS: &'static [VectorSpec] = &PIPELINED_CG_VECTORS;

    /// Per-block pipelined CG kernel (Ghysels–Vanroose recurrences).
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
        let mut u = vec![T::ZERO; n];
        let mut w = vec![T::ZERO; n];
        let mut m = vec![T::ZERO; n];
        let mut nn = vec![T::ZERO; n];
        let mut z = vec![T::ZERO; n];
        let mut q = vec![T::ZERO; n];
        let mut s = vec![T::ZERO; n];
        let mut p = vec![T::ZERO; n];

        // r = b − Ax; u = M⁻¹r; w = Au.
        a.spmv_system(i, x, &mut r);
        blas::sub_from(b, &mut r);
        precond.apply(&pstate, &r, &mut u);
        a.spmv_system(i, &u, &mut w);

        // Fused initial reduction: γ = (r,u), δ = (w,u), ‖r‖ (and ‖b‖).
        let mut gamma = blas::dot(&r, &u);
        let mut delta = blas::dot(&w, &u);
        let bnorm = blas::nrm2(b);
        let res0 = blas::nrm2(&r);
        let mut res = res0;

        let mut gamma_old = T::ONE;
        let mut alpha_old = T::ONE;

        for iter in 0..max_iters as u32 {
            if stop.is_converged(res, res0, bnorm) {
                return SystemResult {
                    iterations: iter,
                    residual: res.to_f64(),
                    converged: true,
                    breakdown: None,
                };
            }
            if gamma == T::ZERO || !gamma.is_finite() {
                return SystemResult {
                    iterations: iter,
                    residual: res.to_f64(),
                    converged: false,
                    breakdown: Some("gamma"),
                };
            }
            // The iteration's only SpMV; the previous fused reduction's tree
            // is overlapped with it on a real device.
            precond.apply(&pstate, &w, &mut m);
            a.spmv_system(i, &m, &mut nn);

            // Scalar recurrences replace the second and third barriers.
            let (beta, alpha) = if iter == 0 {
                (T::ZERO, gamma / delta)
            } else {
                let beta = gamma / gamma_old;
                (beta, gamma / (delta - beta * gamma / alpha_old))
            };
            if !alpha.is_finite() || alpha == T::ZERO {
                return SystemResult {
                    iterations: iter,
                    residual: res.to_f64(),
                    converged: false,
                    breakdown: Some("delta"),
                };
            }
            // Recurrence updates (z = Ap-direction image, q = M⁻¹-image,
            // s = w-image, p = search direction), then the vector updates.
            for k in 0..n {
                z[k] = nn[k] + beta * z[k];
                q[k] = m[k] + beta * q[k];
                s[k] = w[k] + beta * s[k];
                p[k] = u[k] + beta * p[k];
            }
            for k in 0..n {
                x[k] += alpha * p[k];
                u[k] -= alpha * q[k];
                w[k] -= alpha * z[k];
                r[k] -= alpha * s[k];
            }
            gamma_old = gamma;
            alpha_old = alpha;
            // Fused reduction: γ, δ, ‖r‖ in one tree.
            gamma = blas::dot(&r, &u);
            delta = blas::dot(&w, &u);
            res = blas::nrm2(&r);
            if !res.is_finite() {
                return SystemResult {
                    iterations: iter + 1,
                    residual: res.to_f64(),
                    converged: false,
                    breakdown: Some("divergence"),
                };
            }
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

        // Setup: r = b − Ax; u = M⁻¹r; w = Au; fused γ, δ, ‖r‖, ‖b‖.
        let mut setup = OpCounts::ZERO;
        setup += placed_spmv_counts(a, w, sp("x"), sp("r"));
        setup += bc::axpy_counts::<T>(n, MemSpace::Global, sp("r"), w);
        setup.flops += self.precond.generate_flops(n, a.stored_per_system());
        setup += bc::elementwise_counts::<T>(n, sp("r"), MemSpace::Global, sp("u"), w);
        setup.flops += self.precond.apply_flops(n);
        setup += placed_spmv_counts(a, w, sp("u"), sp("w"));
        setup += bc::dot_counts::<T>(n, sp("r"), sp("u"), w);
        setup += bc::dot_counts::<T>(n, sp("w"), sp("u"), w);
        setup += bc::nrm2_counts::<T>(n, sp("r"), w);
        setup += bc::nrm2_counts::<T>(n, MemSpace::Global, w); // ‖b‖

        // One pipelined iteration: m = M⁻¹w, n = Am, four recurrence
        // updates, four vector updates, and the fused γ/δ/‖r‖ reduction.
        let mut it = OpCounts::ZERO;
        it += bc::elementwise_counts::<T>(n, sp("w"), MemSpace::Global, sp("m"), w);
        it.flops += self.precond.apply_flops(n);
        it += placed_spmv_counts(a, w, sp("m"), sp("n"));
        it += bc::axpby_counts::<T>(n, sp("n"), sp("z"), w); // z = n + βz
        it += bc::axpby_counts::<T>(n, sp("m"), sp("q"), w); // q = m + βq
        it += bc::axpby_counts::<T>(n, sp("w"), sp("s"), w); // s = w + βs
        it += bc::axpby_counts::<T>(n, sp("u"), sp("p"), w); // p = u + βp
        it += bc::axpy_counts::<T>(n, sp("p"), sp("x"), w); // x += αp
        it += bc::axpy_counts::<T>(n, sp("q"), sp("u"), w); // u −= αq
        it += bc::axpy_counts::<T>(n, sp("z"), sp("w"), w); // w −= αz
        it += bc::axpy_counts::<T>(n, sp("s"), sp("r"), w); // r −= αs
        it += bc::dot_counts::<T>(n, sp("r"), sp("u"), w); // γ
        it += bc::dot_counts::<T>(n, sp("w"), sp("u"), w); // δ
        it += bc::nrm2_counts::<T>(n, sp("r"), w);

        // One SpMV per iteration.
        let ro = a.value_bytes_per_system() as u64 + a.shared_index_bytes() as u64;
        // One preconditioner apply per iteration plus one at setup.
        let p_syncs = self.precond.apply_syncs(n);
        let p_stages = self.precond.apply_stages(n).saturating_sub(1);
        let mut sync = SYNC.with_precond_applies(1, p_syncs);
        sync.setup_syncs += p_syncs;
        StageCosts {
            setup,
            per_iter: it,
            setup_stages: SETUP_STAGES + p_stages,
            iter_stages: ITER_STAGES + p_stages,
            ro_req_per_iter: ro,
            sync,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::BatchCg;
    use crate::precond::Jacobi;
    use crate::stop::AbsResidual;
    use batsolv_formats::{BatchCsr, BatchEll, SparsityPattern};
    use std::sync::Arc;

    fn spd_batch(num_systems: usize, nx: usize) -> BatchCsr<f64> {
        let p = Arc::new(SparsityPattern::stencil_2d(nx, nx, false));
        let mut m = BatchCsr::zeros(num_systems, p).unwrap();
        for i in 0..num_systems {
            m.fill_system(i, |r, c| if r == c { 4.5 + 0.1 * i as f64 } else { -1.0 });
        }
        m
    }

    #[test]
    fn pipelined_cg_solves_spd_batch() {
        let m = spd_batch(3, 8);
        let xs = BatchVectors::from_fn(m.dims(), |s, r| ((s * 13 + r) % 7) as f64 * 0.2);
        let mut b = BatchVectors::zeros(m.dims());
        m.spmv(&xs, &mut b).unwrap();
        let mut x = BatchVectors::zeros(m.dims());
        let rep = PipelinedCg::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&DeviceSpec::a100(), &m, &b, &mut x)
            .unwrap();
        assert!(rep.all_converged(), "{rep:?}");
        assert!(m.max_residual_norm(&x, &b).unwrap() < 1e-8);
        assert_eq!(rep.solver, "pipelined-cg");
    }

    #[test]
    fn one_sync_per_iteration_vs_three_classical() {
        let m = spd_batch(2, 8);
        let b = BatchVectors::constant(m.dims(), 1.0);
        let dev = DeviceSpec::v100();
        let mut x1 = BatchVectors::zeros(m.dims());
        let pipe = PipelinedCg::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&dev, &m, &b, &mut x1)
            .unwrap();
        let mut x2 = BatchVectors::zeros(m.dims());
        let classic = BatchCg::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&dev, &m, &b, &mut x2)
            .unwrap();
        assert_eq!(pipe.syncs_per_iteration, 1.0);
        assert_eq!(classic.syncs_per_iteration, 3.0);
        // The profiler still counts the hidden reductions.
        assert!(pipe.reductions() > 0);
        assert!(pipe.syncs() < classic.syncs());
    }

    #[test]
    fn pipelined_is_simulated_faster_at_batch_64() {
        // ELL is the acceptance workload's format (the bench sweep solves
        // on ELL): its lighter traffic makes the sync latency the
        // dominant per-iteration cost, which is what pipelining removes.
        let csr = spd_batch(64, 31); // 961 rows ≈ the XGC size
        let m = BatchEll::from_csr(&csr).unwrap();
        let b = BatchVectors::constant(m.dims(), 1.0);
        let dev = DeviceSpec::v100();
        let mut x1 = BatchVectors::zeros(m.dims());
        let pipe = PipelinedCg::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&dev, &m, &b, &mut x1)
            .unwrap();
        let mut x2 = BatchVectors::zeros(m.dims());
        let classic = BatchCg::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&dev, &m, &b, &mut x2)
            .unwrap();
        assert!(pipe.all_converged() && classic.all_converged());
        let speedup = classic.time_s() / pipe.time_s();
        assert!(speedup >= 1.3, "pipelined speedup {speedup:.2} < 1.3");
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let m = spd_batch(1, 6);
        let b = BatchVectors::zeros(m.dims());
        let mut x = BatchVectors::zeros(m.dims());
        let rep = PipelinedCg::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&DeviceSpec::v100(), &m, &b, &mut x)
            .unwrap();
        assert!(rep.all_converged());
        assert_eq!(rep.max_iterations(), 0);
    }

    #[test]
    fn iteration_cap_reports_unconverged() {
        let m = spd_batch(1, 8);
        let b = BatchVectors::constant(m.dims(), 1.0);
        let mut x = BatchVectors::zeros(m.dims());
        let rep = PipelinedCg::new(Jacobi, AbsResidual::new(1e-30))
            .with_max_iters(3)
            .solve(&DeviceSpec::v100(), &m, &b, &mut x)
            .unwrap();
        assert!(!rep.all_converged());
        assert_eq!(rep.max_iterations(), 3);
    }
}
