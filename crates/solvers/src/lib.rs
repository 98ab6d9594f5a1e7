#![allow(clippy::needless_range_loop)] // indexed loops are the clearest idiom for stencil/linear-algebra kernels
//! Batched iterative and direct solvers.
//!
//! This crate is the paper's primary contribution rebuilt in Rust:
//!
//! * [`bicgstab`] — the batched BiCGSTAB of Algorithm 1, fused into a
//!   single simulated kernel launch with per-system convergence
//!   monitoring; composed at compile time from a
//!   [`preconditioner`](precond), a [stopping criterion](stop), and a
//!   [logger] exactly like Ginkgo's templated `apply_kernel`;
//! * [`cg`], [`gmres`], [`richardson`] — the other preconditionable
//!   batched Krylov/fixed-point solvers ("we implement batched versions
//!   of several preconditionable iterative solvers"; BiCGSTAB won);
//! * [`pipelined_cg`], [`pipelined_bicgstab`] — communication-avoiding
//!   reformulations (Ghysels–Vanroose / Cools–Vanroose recurrences) that
//!   fuse the per-iteration dot products into one reduction overlapped
//!   with the SpMV: 1 and 2 synchronization points per iteration versus
//!   3 and 6 for the classical variants;
//! * [`workspace`] — the automatic shared-memory configuration of
//!   Section IV.D: SpMV-operand ("red") vectors are placed in shared
//!   memory first, other intermediates next, the rest spill to global;
//! * [`direct`] — the baselines: a banded LU (`dgbsv`, the CPU
//!   comparator) and a Givens sparse QR (the cuSolver comparator);
//! * [`monolithic`] — the Section II ablation: the whole batch assembled
//!   into one block-diagonal system and solved by a single non-batched
//!   BiCGSTAB with global (worst-system) convergence.

pub mod api;
pub mod bicgstab;
pub mod cg;
pub mod cgs;
pub mod common;
pub mod direct;
pub mod gmres;
pub mod levels;
pub mod logger;
pub mod monolithic;
pub mod pipelined_bicgstab;
pub mod pipelined_cg;
pub mod polynomial;
pub mod precond;
pub mod refinement;
pub mod richardson;
pub mod stop;
pub mod trace_adapter;
pub mod workspace;

pub use api::IterativeSolver;
pub use bicgstab::BatchBicgstab;
pub use cg::BatchCg;
pub use cgs::BatchCgs;
pub use common::{BatchSolveReport, SystemResult};
pub use gmres::BatchGmres;
pub use levels::LevelSchedule;
pub use logger::{ConvergenceHistory, IterationLogger, NoopLogger};
pub use pipelined_bicgstab::PipelinedBicgstab;
pub use pipelined_cg::PipelinedCg;
pub use polynomial::NeumannPolynomial;
pub use precond::{BlockJacobi, Identity, Ilu0, Ilu0State, Jacobi, Preconditioner};
pub use refinement::{MixedPrecisionBicgstab, RefinementReport};
pub use richardson::BatchRichardson;
pub use stop::{AbsResidual, RelResidual, StopCriterion};
pub use trace_adapter::TraceLogger;
pub use workspace::{VectorClass, WorkspacePlan};
