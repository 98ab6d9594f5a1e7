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
