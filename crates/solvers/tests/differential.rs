#![allow(clippy::needless_range_loop)]
//! Differential oracle tests.
//!
//! Two independent implementations of the same computation must agree:
//!
//! * **fused batch vs sequential** — every iterative solver run over the
//!   whole batch at once must produce *bitwise* the same solutions,
//!   iteration counts, and residuals as solving each system alone
//!   through a [`SystemSlice`]. The fused path is what the parallel
//!   executor fans out; the sliced path is the slow, obviously-serial
//!   oracle. Equality here is what makes the executor's speedup claims
//!   trustworthy: the fast path computes the *identical* answer.
//! * **fast-layout SpMV vs naive reference** — the iterator-based
//!   ELL/DIA kernels (both value layouts) against a textbook
//!   triple-loop SpMV built from `entry()`, and column-major against
//!   row-major bitwise.

use std::sync::Arc;

use batsolv_formats::{
    BatchCsr, BatchDia, BatchEll, BatchMatrix, BatchVectors, SparsityPattern, SystemSlice,
    ValueLayout,
};
use batsolv_gpusim::DeviceSpec;
use batsolv_solvers::{
    BatchBicgstab, BatchCg, BatchCgs, BatchGmres, BatchRichardson, IterativeSolver, Jacobi,
    PipelinedBicgstab, PipelinedCg, RelResidual,
};
use batsolv_types::BatchDims;

const NX: usize = 8;
const NY: usize = 7;
const NS: usize = 6;

/// A seeded, diagonally dominant stencil batch (deterministic).
fn batch(seed: u64) -> BatchCsr<f64> {
    let p = Arc::new(SparsityPattern::stencil_2d(NX, NY, true));
    let mut m = BatchCsr::zeros(NS, p).unwrap();
    for s in 0..NS {
        m.fill_system(s, |r, c| {
            let h = (seed as usize)
                .wrapping_mul(2654435761)
                .wrapping_add(s * 8191 + r * 131 + c * 17);
            let v = (h % 1000) as f64 / 1000.0 - 0.5;
            if r == c {
                10.0 + v
            } else {
                0.6 * v
            }
        });
    }
    m
}

fn rhs(dims: BatchDims) -> BatchVectors<f64> {
    BatchVectors::from_fn(dims, |s, r| ((s * 53 + r * 7) as f64 * 0.093).cos())
}

/// Solve the batch fused, then system-by-system through slices, and
/// demand bitwise-identical outcomes.
fn assert_fused_matches_sequential<S: IterativeSolver<f64>>(solver: &S) {
    let device = DeviceSpec::v100();
    let m = batch(42);
    let dims = m.dims();
    let b = rhs(dims);

    let mut x_fused = BatchVectors::zeros(dims);
    let fused = solver
        .solve_batch(&device, &m, &b, &mut x_fused)
        .unwrap_or_else(|e| panic!("{} fused solve failed: {e}", solver.name()));

    for i in 0..dims.num_systems {
        let slice = SystemSlice::new(&m, i).unwrap();
        let sdims = slice.dims();
        let bi = BatchVectors::from_values(sdims, b.system(i).to_vec()).unwrap();
        let mut xi = BatchVectors::zeros(sdims);
        let seq = solver
            .solve_batch(&device, &slice, &bi, &mut xi)
            .unwrap_or_else(|e| panic!("{} sliced solve of {i} failed: {e}", solver.name()));

        // Bitwise: same iteration path, same floats.
        assert_eq!(
            xi.system(0),
            x_fused.system(i),
            "{}: solution of system {i} differs between fused and sequential",
            solver.name()
        );
        assert_eq!(
            seq.per_system[0].iterations,
            fused.per_system[i].iterations,
            "{}: iteration count of system {i} differs",
            solver.name()
        );
        assert_eq!(
            seq.per_system[0].residual.to_bits(),
            fused.per_system[i].residual.to_bits(),
            "{}: residual of system {i} differs",
            solver.name()
        );
        assert_eq!(seq.per_system[0].converged, fused.per_system[i].converged);
    }
}

#[test]
fn bicgstab_fused_matches_sequential_bitwise() {
    assert_fused_matches_sequential(&BatchBicgstab::new(Jacobi, RelResidual::new(1e-10)));
}

#[test]
fn cg_fused_matches_sequential_bitwise() {
    assert_fused_matches_sequential(&BatchCg::new(Jacobi, RelResidual::new(1e-10)));
}

#[test]
fn cgs_fused_matches_sequential_bitwise() {
    assert_fused_matches_sequential(&BatchCgs::new(Jacobi, RelResidual::new(1e-10)));
}

#[test]
fn gmres_fused_matches_sequential_bitwise() {
    assert_fused_matches_sequential(&BatchGmres::new(Jacobi, RelResidual::new(1e-10), 25));
}

#[test]
fn richardson_fused_matches_sequential_bitwise() {
    assert_fused_matches_sequential(&BatchRichardson::new(Jacobi, RelResidual::new(1e-8), 0.08));
}

#[test]
fn pipelined_bicgstab_fused_matches_sequential_bitwise() {
    assert_fused_matches_sequential(&PipelinedBicgstab::new(Jacobi, RelResidual::new(1e-10)));
}

#[test]
fn pipelined_cg_fused_matches_sequential_bitwise() {
    assert_fused_matches_sequential(&PipelinedCg::new(Jacobi, RelResidual::new(1e-10)));
}

/// A symmetric (hence SPD, by diagonal dominance) fill of the same
/// stencil, for the CG pair below.
fn spd_batch(seed: u64) -> BatchCsr<f64> {
    let p = Arc::new(SparsityPattern::stencil_2d(NX, NY, true));
    let mut m = BatchCsr::zeros(NS, p).unwrap();
    for s in 0..NS {
        m.fill_system(s, |r, c| {
            let (lo, hi) = (r.min(c), r.max(c));
            let h = (seed as usize)
                .wrapping_mul(2654435761)
                .wrapping_add(s * 8191 + lo * 131 + hi * 17);
            let v = (h % 1000) as f64 / 1000.0 - 0.5;
            if r == c {
                10.0 + v
            } else {
                0.6 * v
            }
        });
    }
    m
}

/// The fused-AXPY toggle folds the vector updates into single loops but
/// computes identical FMA sequences per element, so the whole iteration
/// path — solutions, iteration counts, residuals — must stay bitwise
/// equal to the classical two-kernel path.
fn assert_fused_axpy_is_bitwise_identical<S1, S2>(classical: &S1, fused: &S2, m: &BatchCsr<f64>)
where
    S1: IterativeSolver<f64>,
    S2: IterativeSolver<f64>,
{
    let device = DeviceSpec::v100();
    let b = rhs(m.dims());
    let mut x_classical = BatchVectors::zeros(m.dims());
    let rep_classical = classical
        .solve_batch(&device, m, &b, &mut x_classical)
        .unwrap();
    let mut x_fused = BatchVectors::zeros(m.dims());
    let rep_fused = fused.solve_batch(&device, m, &b, &mut x_fused).unwrap();

    assert_eq!(x_classical.values(), x_fused.values());
    for (c, f) in rep_classical.per_system.iter().zip(&rep_fused.per_system) {
        assert_eq!(c.iterations, f.iterations);
        assert_eq!(c.residual.to_bits(), f.residual.to_bits());
        assert_eq!(c.converged, f.converged);
    }
}

#[test]
fn bicgstab_fused_axpy_is_bitwise_identical() {
    let stop = RelResidual::new(1e-10);
    assert_fused_axpy_is_bitwise_identical(
        &BatchBicgstab::new(Jacobi, stop),
        &BatchBicgstab::new(Jacobi, stop).with_fused_axpy(true),
        &batch(42),
    );
}

#[test]
fn cg_fused_axpy_is_bitwise_identical() {
    let stop = RelResidual::new(1e-10);
    assert_fused_axpy_is_bitwise_identical(
        &BatchCg::new(Jacobi, stop),
        &BatchCg::new(Jacobi, stop).with_fused_axpy(true),
        &spd_batch(42),
    );
}

/// Textbook reference SpMV: dense triple loop over `entry()`. Slow and
/// independent of every fast kernel's indexing.
fn naive_spmv<M: BatchMatrix<f64>>(m: &M, x: &BatchVectors<f64>) -> BatchVectors<f64> {
    let dims = m.dims();
    let mut y = BatchVectors::zeros(dims);
    for i in 0..dims.num_systems {
        let xi = x.system(i).to_vec();
        let yi = y.system_mut(i);
        for r in 0..dims.num_rows {
            let mut acc = 0.0f64;
            for c in 0..dims.num_rows {
                acc += m.entry(i, r, c) * xi[c];
            }
            yi[r] = acc;
        }
    }
    y
}

#[test]
fn fast_layout_spmv_matches_naive_reference() {
    let m = batch(7);
    let dims = m.dims();
    let x = BatchVectors::from_fn(dims, |s, r| ((s * 31 + r * 3) as f64 * 0.17).sin());
    let y_ref = naive_spmv(&m, &x);

    let check = |mat: &dyn BatchMatrix<f64>| {
        let mut y = BatchVectors::zeros(dims);
        mat.spmv(&x, &mut y).unwrap();
        for (r, (a, b)) in y.values().iter().zip(y_ref.values()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12 * b.abs().max(1.0),
                "{} flat index {r}: {a} vs reference {b}",
                mat.format_name()
            );
        }
    };
    check(&m);
    for layout in [ValueLayout::ColMajor, ValueLayout::RowMajor] {
        check(&BatchEll::from_csr_in(&m, layout).unwrap());
        check(&BatchDia::from_csr_in(&m, 16, layout).unwrap());
    }
}

#[test]
fn col_and_row_major_spmv_are_bitwise_identical() {
    let m = batch(19);
    let dims = m.dims();
    let x = BatchVectors::from_fn(dims, |s, r| ((s * 13 + r * 11) as f64 * 0.23).cos());

    let spmv = |mat: &dyn BatchMatrix<f64>| {
        let mut y = BatchVectors::zeros(dims);
        mat.spmv(&x, &mut y).unwrap();
        y
    };
    let ell_col = spmv(&BatchEll::from_csr_in(&m, ValueLayout::ColMajor).unwrap());
    let ell_row = spmv(&BatchEll::from_csr_in(&m, ValueLayout::RowMajor).unwrap());
    assert_eq!(ell_col.values(), ell_row.values());

    let dia_col = spmv(&BatchDia::from_csr_in(&m, 16, ValueLayout::ColMajor).unwrap());
    let dia_row = spmv(&BatchDia::from_csr_in(&m, 16, ValueLayout::RowMajor).unwrap());
    assert_eq!(dia_col.values(), dia_row.values());
}

/// The full differential chain the executor relies on: solve on ELL in
/// the paper's column-major layout (fused) vs CSR sliced sequential —
/// formats differ, answers agree to tight tolerance, iterations match
/// CSR exactly (the stencil SpMV accumulation order coincides).
#[test]
fn ell_fused_vs_csr_sequential_cross_format() {
    let device = DeviceSpec::v100();
    let m = batch(3);
    let ell = BatchEll::from_csr(&m).unwrap();
    let dims = m.dims();
    let b = rhs(dims);
    let solver = BatchBicgstab::new(Jacobi, RelResidual::new(1e-11));

    let mut x_ell = BatchVectors::zeros(dims);
    let rep_ell = solver.solve(&device, &ell, &b, &mut x_ell).unwrap();

    for i in 0..dims.num_systems {
        let slice = SystemSlice::new(&m, i).unwrap();
        let bi = BatchVectors::from_values(slice.dims(), b.system(i).to_vec()).unwrap();
        let mut xi = BatchVectors::zeros(slice.dims());
        let rep = solver.solve(&device, &slice, &bi, &mut xi).unwrap();
        for (a, f) in xi.system(0).iter().zip(x_ell.system(i)) {
            assert!((a - f).abs() <= 1e-9 * f.abs().max(1.0));
        }
        let di = rep.per_system[0].iterations as i64 - rep_ell.per_system[i].iterations as i64;
        assert!(di.abs() <= 1, "iterations drifted by {di} on system {i}");
    }
}

// ---------------------------------------------------------------------------
// Preconditioner ladder differentials.
// ---------------------------------------------------------------------------

use batsolv_solvers::{BlockJacobi, Identity, Ilu0, Preconditioner};

/// On a matrix whose diagonal is exactly 1.0, the Jacobi apply divides
/// by 1.0 — the same floats Identity passes through — so the whole
/// iteration path must be bitwise identical to the unpreconditioned
/// (Identity) run.
#[test]
fn identity_precond_matches_unpreconditioned_bitwise() {
    let p = Arc::new(SparsityPattern::stencil_2d(NX, NY, true));
    let mut m = BatchCsr::zeros(NS, p).unwrap();
    for s in 0..NS {
        m.fill_system(s, |r, c| {
            if r == c {
                1.0
            } else {
                -0.04 - 0.01 * ((s + r * 3 + c) % 5) as f64
            }
        });
    }
    let device = DeviceSpec::v100();
    let b = rhs(m.dims());
    let stop = RelResidual::new(1e-10);

    let mut x_id = BatchVectors::zeros(m.dims());
    let rep_id = BatchBicgstab::new(Identity, stop)
        .solve_batch(&device, &m, &b, &mut x_id)
        .unwrap();
    let mut x_j = BatchVectors::zeros(m.dims());
    let rep_j = BatchBicgstab::new(Jacobi, stop)
        .solve_batch(&device, &m, &b, &mut x_j)
        .unwrap();

    assert_eq!(x_id.values(), x_j.values());
    for (a, b) in rep_id.per_system.iter().zip(&rep_j.per_system) {
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.residual.to_bits(), b.residual.to_bits());
        assert_eq!(a.converged, b.converged);
    }
}

/// Fused-vs-sequential bitwise equality for every solver under one
/// ladder preconditioner. The per-system preconditioner state (block
/// factorizations, ILU(0) factors) is generated from each system's own
/// values in both paths, so batching must not change a single bit.
fn assert_every_solver_fused_matches_sequential<P>(precond: P)
where
    P: Preconditioner<f64> + 'static,
{
    let stop = RelResidual::new(1e-10);
    assert_fused_matches_sequential(&BatchBicgstab::new(precond.clone(), stop));
    assert_fused_matches_sequential(
        &BatchBicgstab::new(precond.clone(), stop).with_fused_axpy(true),
    );
    assert_fused_matches_sequential(&BatchCgs::new(precond.clone(), stop));
    assert_fused_matches_sequential(&BatchGmres::new(precond.clone(), stop, 25));
    assert_fused_matches_sequential(&PipelinedBicgstab::new(precond.clone(), stop));
    assert_fused_matches_sequential(&BatchRichardson::new(
        precond.clone(),
        RelResidual::new(1e-8),
        0.08,
    ));
    assert_fused_matches_sequential(&BatchCg::new(precond.clone(), stop));
    assert_fused_matches_sequential(&PipelinedCg::new(precond, stop));
}

#[test]
fn every_solver_fused_matches_sequential_under_jacobi() {
    assert_every_solver_fused_matches_sequential(Jacobi);
}

#[test]
fn every_solver_fused_matches_sequential_under_block_jacobi() {
    assert_every_solver_fused_matches_sequential(BlockJacobi::new(4));
}

#[test]
fn every_solver_fused_matches_sequential_under_ilu0() {
    let p = Arc::new(SparsityPattern::stencil_2d(NX, NY, true));
    assert_every_solver_fused_matches_sequential(Ilu0::new(p));
}

/// The level-scheduled triangular solves (levels fused across the batch,
/// one barrier per level) must reproduce the naive row-by-row forward/
/// backward sweeps bit for bit: levels only group rows that have no
/// dependencies on each other, so the arithmetic per row is identical.
#[test]
fn level_scheduled_trisolve_matches_naive_reference_bitwise() {
    let m = batch(1234);
    let ilu = Ilu0::new(Arc::clone(m.pattern()));
    let n = m.dims().num_rows;
    for i in 0..m.dims().num_systems {
        let state = Preconditioner::<f64>::generate(&ilu, &m, i).unwrap();
        let input: Vec<f64> = (0..n)
            .map(|r| ((i * 31 + r * 7) as f64 * 0.13).sin())
            .collect();
        let mut scheduled = vec![0.0f64; n];
        Preconditioner::<f64>::apply(&ilu, &state, &input, &mut scheduled);
        let mut naive = vec![0.0f64; n];
        ilu.apply_naive(&state, &input, &mut naive);
        for r in 0..n {
            assert_eq!(
                scheduled[r].to_bits(),
                naive[r].to_bits(),
                "system {i} row {r}: level-scheduled {} vs naive {}",
                scheduled[r],
                naive[r]
            );
        }
    }
}
