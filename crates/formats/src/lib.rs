#![allow(clippy::needless_range_loop)] // indexed loops are the clearest idiom for stencil/linear-algebra kernels
//! Batch matrix storage formats and their sparse matrix–vector kernels.
//!
//! This crate implements the storage formats of the paper's Section IV.A
//! (Figure 3):
//!
//! * [`BatchCsr`] — compressed sparse row with **one shared sparsity
//!   pattern** for the whole batch and per-system value arrays;
//! * [`BatchEll`] — ELLPACK with shared column indices, values stored
//!   **column-major** per system for coalesced access (the winning format
//!   for the XGC nine-point-stencil matrices);
//! * [`BatchDense`] — dense row-major storage, used as a reference and by
//!   the direct eigen/LU paths;
//! * [`BatchBanded`] — LAPACK-style band storage (`dgbsv` layout, the
//!   paper's CPU baseline).
//!
//! All formats share one [`SparsityPattern`] abstraction and one right-hand
//! side / solution container, [`BatchVectors`]. Every SpMV kernel reports
//! [`OpCounts`](batsolv_types::OpCounts) so the GPU execution model can
//! price it.

pub mod banded;
pub mod csr;
pub mod dense;
pub mod dia;
pub mod ell;
pub mod layout;
pub mod matrix_market;
pub mod pattern;
pub mod slice;
pub mod storage;
pub mod traits;
pub mod vectors;

#[cfg(test)]
mod ell_run_tests;
#[cfg(test)]
mod fma_tests;

pub use banded::BatchBanded;
pub use csr::BatchCsr;
pub use dense::BatchDense;
pub use dia::BatchDia;
pub use ell::{BatchEll, EllIndex};
pub use layout::ValueLayout;
pub use matrix_market::MmError;
pub use pattern::SparsityPattern;
pub use slice::SystemSlice;
pub use storage::StorageReport;
pub use traits::BatchMatrix;
pub use vectors::BatchVectors;
