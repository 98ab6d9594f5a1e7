//! Foundation types shared by every `batsolv` crate.
//!
//! This crate is deliberately dependency-free. It provides:
//!
//! * [`Scalar`] — the floating-point abstraction (`f32`/`f64`) used by all
//!   numeric kernels;
//! * [`Complex`] — a minimal complex number used by the eigenvalue solver
//!   (matrices in the collision kernel are nonsymmetric, so spectra are
//!   complex);
//! * [`BatchDims`] — the shape of a batch of equally-sized linear systems;
//! * [`Error`] / [`Result`] — the common error type;
//! * [`fma_kernel!`] — compiles a kernel with hardware fused multiply-add
//!   next to its portable copy and picks one per call ([`fma`]).

pub mod complex;
pub mod counts;
pub mod dims;
pub mod error;
pub mod fma;
pub mod scalar;

pub use complex::Complex;
pub use counts::OpCounts;
pub use dims::BatchDims;
pub use error::{Error, Result};
pub use scalar::Scalar;
