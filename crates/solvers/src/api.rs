//! A common entry point over the batched iterative solvers.
//!
//! Every Krylov/fixed-point solver in this crate exposes the same
//! `solve(device, a, b, x)` shape, but as inherent methods on seven
//! distinct generic structs. [`IterativeSolver`] names that shape so the
//! parallel batch executor (and the escalation ladder, and the bench
//! harness) can be written once, generic over *which* solver runs per
//! thread-block task. The trait stays generic in the matrix (no
//! `dyn`-dispatch inside the hot loop): the executor monomorphizes per
//! solver/format pair, exactly like the templated kernels it models.

use batsolv_formats::{BatchMatrix, BatchVectors};
use batsolv_gpusim::DeviceSpec;
use batsolv_types::{Result, Scalar};

use crate::bicgstab::BatchBicgstab;
use crate::cg::BatchCg;
use crate::cgs::BatchCgs;
use crate::common::{BatchKernel, BatchSolveReport};
use crate::gmres::BatchGmres;
use crate::pipelined_bicgstab::PipelinedBicgstab;
use crate::pipelined_cg::PipelinedCg;
use crate::precond::Preconditioner;
use crate::richardson::BatchRichardson;
use crate::stop::StopCriterion;

/// Anything that can solve a whole batch `A_i x_i = b_i` in one fused
/// launch, taking `x` as the initial guess.
pub trait IterativeSolver<T: Scalar>: Send + Sync {
    /// Short lowercase solver name (`"bicgstab"`, `"gmres"`, ...), used
    /// in reports and benchmark output.
    fn name(&self) -> &'static str;

    /// Solve every system of the batch; price the launch on `device`.
    fn solve_batch<M: BatchMatrix<T>>(
        &self,
        device: &DeviceSpec,
        a: &M,
        b: &BatchVectors<T>,
        x: &mut BatchVectors<T>,
    ) -> Result<BatchSolveReport>;
}

macro_rules! impl_iterative_solver {
    ($solver:ident) => {
        impl<T, P, S> IterativeSolver<T> for $solver<T, P, S>
        where
            T: Scalar,
            P: Preconditioner<T>,
            S: StopCriterion<T>,
        {
            fn name(&self) -> &'static str {
                <Self as BatchKernel<T>>::NAME
            }

            fn solve_batch<M: BatchMatrix<T>>(
                &self,
                device: &DeviceSpec,
                a: &M,
                b: &BatchVectors<T>,
                x: &mut BatchVectors<T>,
            ) -> Result<BatchSolveReport> {
                self.solve(device, a, b, x)
            }
        }
    };
}

impl_iterative_solver!(BatchBicgstab);
impl_iterative_solver!(BatchCg);
impl_iterative_solver!(BatchCgs);
impl_iterative_solver!(BatchGmres);
impl_iterative_solver!(BatchRichardson);
impl_iterative_solver!(PipelinedBicgstab);
impl_iterative_solver!(PipelinedCg);

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use batsolv_formats::{BatchCsr, SparsityPattern};

    use super::*;
    use crate::precond::Jacobi;
    use crate::stop::RelResidual;

    /// Generic driver: the whole point of the trait.
    fn drive<T: Scalar, S: IterativeSolver<T>, M: BatchMatrix<T>>(
        solver: &S,
        a: &M,
        b: &BatchVectors<T>,
        x: &mut BatchVectors<T>,
    ) -> Result<BatchSolveReport> {
        solver.solve_batch(&DeviceSpec::v100(), a, b, x)
    }

    #[test]
    fn all_solvers_share_the_trait_entry_point() {
        let p = Arc::new(SparsityPattern::stencil_2d(4, 4, true));
        let mut m = BatchCsr::zeros(2, p).unwrap();
        for i in 0..2 {
            m.fill_system(i, |r, c| if r == c { 8.0 } else { -0.4 });
        }
        let b = BatchVectors::from_fn(m.dims(), |_, r| 1.0 + r as f64 * 0.01);
        let stop = RelResidual::new(1e-10);

        let bicg = BatchBicgstab::new(Jacobi, stop);
        let cg = BatchCg::new(Jacobi, stop);
        let gmres = BatchGmres::new(Jacobi, stop, 20);
        assert_eq!(IterativeSolver::<f64>::name(&bicg), "bicgstab");
        assert_eq!(IterativeSolver::<f64>::name(&cg), "cg");
        assert_eq!(IterativeSolver::<f64>::name(&gmres), "gmres");

        let mut x = BatchVectors::zeros(m.dims());
        let rep = drive(&bicg, &m, &b, &mut x).unwrap();
        assert!(rep.per_system.iter().all(|s| s.converged));
        let mut x = BatchVectors::zeros(m.dims());
        let rep = drive(&gmres, &m, &b, &mut x).unwrap();
        assert!(rep.per_system.iter().all(|s| s.converged));
    }
}
