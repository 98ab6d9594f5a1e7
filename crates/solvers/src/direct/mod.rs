//! Batched direct solvers — the baselines of the paper's evaluation.
//!
//! * [`banded_lu`] — LAPACK `dgbsv`-style banded LU with partial
//!   pivoting, the production CPU path of the XGC proxy app (one solve
//!   per core, parallelized over the batch by Kokkos/OpenMP);
//! * [`sparse_qr`] — a Givens-rotation QR on band storage, standing in
//!   for cuSolver's `csrqrsvBatched` (the only vendor-provided batched
//!   sparse solver, shown in Figure 6 to be 10–30× slower than batched
//!   BiCGSTAB).

pub mod banded_lu;
pub mod dense_lu;
pub mod sparse_qr;

pub use banded_lu::BatchBandedLu;
pub use dense_lu::BatchDenseLu;
pub use sparse_qr::BatchSparseQr;

use batsolv_formats::BatchMatrix;
use batsolv_types::Scalar;

use crate::common::SystemResult;

/// System `i`'s outcome once a direct solve left its solution in `x`:
/// the true residual `‖b − A x‖₂` if the factorization succeeded
/// (`factored`), a `"singular"` breakdown if it did not. A factor+solve
/// with a poisoned input can finish and still produce garbage, so only
/// a finite residual counts as solved.
fn true_residual_result<T: Scalar, M: BatchMatrix<T>>(
    a: &M,
    i: usize,
    b: &[T],
    x: &[T],
    factored: bool,
) -> SystemResult {
    if !factored {
        return SystemResult {
            iterations: 0,
            residual: f64::INFINITY,
            converged: false,
            breakdown: Some("singular"),
        };
    }
    let mut r = vec![T::ZERO; b.len()];
    a.spmv_system(i, x, &mut r);
    let res = b
        .iter()
        .zip(r.iter())
        .map(|(&bv, &rv)| (bv - rv) * (bv - rv))
        .fold(T::ZERO, |acc, v| acc + v)
        .sqrt()
        .to_f64();
    SystemResult {
        iterations: 1,
        residual: res,
        converged: res.is_finite(),
        breakdown: (!res.is_finite()).then_some("nonfinite"),
    }
}
