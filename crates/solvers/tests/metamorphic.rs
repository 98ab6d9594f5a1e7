#![allow(clippy::needless_range_loop)]
//! Metamorphic solver tests.
//!
//! Transform a system in a way whose effect on the solution is known
//! exactly, solve the transformed system, undo the transform, and
//! compare. Unlike the differential oracle (same computation, two
//! implementations), these catch indexing and layout bugs that corrupt
//! *both* paths identically:
//!
//! * **symmetric scaling** `A → D A D`, `b → D b` has solution
//!   `x = D x'`; the Jacobi-preconditioned iteration is similarity-
//!   invariant up to rounding, so iteration counts stay within ±1;
//! * **symmetric row/column permutation** `A → P A Pᵀ`, `b → P b` has
//!   solution `x = Pᵀ x'` and, again, iteration counts within ±1.

use std::sync::Arc;

use batsolv_formats::{BatchCsr, BatchEll, BatchMatrix, BatchVectors, SparsityPattern};
use batsolv_gpusim::DeviceSpec;
use batsolv_solvers::{
    BatchBicgstab, BatchCg, BatchGmres, IterativeSolver, Jacobi, PipelinedBicgstab, PipelinedCg,
    RelResidual,
};

const NX: usize = 7;
const NY: usize = 6;
const NS: usize = 4;
const N: usize = NX * NY;

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

fn rhs(m: &BatchCsr<f64>) -> BatchVectors<f64> {
    BatchVectors::from_fn(m.dims(), |s, r| ((s * 41 + r * 5) as f64 * 0.083).sin())
}

/// Mild per-row scaling factors (kept near 1 so the relative-residual
/// stopping surface moves by rounding only).
fn scaling(i: usize) -> Vec<f64> {
    (0..N)
        .map(|r| 0.8 + 0.4 * (((i * 97 + r * 13) % 101) as f64 / 100.0))
        .collect()
}

/// A deterministic permutation of `0..N` (an affine map, gcd(a, N)=1).
fn permutation() -> Vec<usize> {
    let a = (1..N).find(|a| gcd(*a, N) == 1 && *a > N / 3).unwrap();
    (0..N).map(|r| (a * r + 3) % N).collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

struct Outcome {
    x: BatchVectors<f64>,
    iterations: Vec<usize>,
}

fn solve<S: IterativeSolver<f64>, M: BatchMatrix<f64>>(
    solver: &S,
    m: &M,
    b: &BatchVectors<f64>,
) -> Outcome {
    let mut x = BatchVectors::zeros(m.dims());
    let rep = solver
        .solve_batch(&DeviceSpec::v100(), m, b, &mut x)
        .unwrap_or_else(|e| panic!("{} solve failed: {e}", solver.name()));
    assert!(
        rep.per_system.iter().all(|s| s.converged),
        "{}: not all systems converged",
        solver.name()
    );
    Outcome {
        x,
        iterations: rep
            .per_system
            .iter()
            .map(|s| s.iterations as usize)
            .collect(),
    }
}

fn assert_close(name: &str, i: usize, got: &[f64], want: &[f64], tol: f64) {
    for (r, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= tol * w.abs().max(1.0),
            "{name}: system {i} row {r}: {g} vs {w}"
        );
    }
}

fn assert_iterations_close(name: &str, a: &[usize], b: &[usize]) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let d = *x as i64 - *y as i64;
        assert!(
            d.abs() <= 1,
            "{name}: system {i} iteration count drifted: {x} vs {y}"
        );
    }
}

/// `D A D` with `D = diag(d)`, same pattern.
fn scaled_system(m: &BatchCsr<f64>, b: &BatchVectors<f64>) -> (BatchCsr<f64>, BatchVectors<f64>) {
    let mut sm = BatchCsr::zeros(NS, Arc::clone(m.pattern())).unwrap();
    for i in 0..NS {
        let d = scaling(i);
        sm.fill_system(i, |r, c| d[r] * m.get(i, r, c) * d[c]);
    }
    let sb = BatchVectors::from_fn(m.dims(), |i, r| scaling(i)[r] * b.system(i)[r]);
    (sm, sb)
}

/// `P A Pᵀ` where row/col `r` of the original lands at `perm[r]`.
fn permuted_system(
    m: &BatchCsr<f64>,
    b: &BatchVectors<f64>,
    perm: &[usize],
) -> (BatchCsr<f64>, BatchVectors<f64>) {
    let mut inv = vec![0usize; N];
    for (r, &p) in perm.iter().enumerate() {
        inv[p] = r;
    }
    let coords: Vec<(usize, usize)> = (0..N)
        .flat_map(|r| {
            let m = &m;
            m.pattern()
                .row_cols(r)
                .iter()
                .map(move |&c| (perm[r], perm[c as usize]))
                .collect::<Vec<_>>()
        })
        .collect();
    let p = Arc::new(SparsityPattern::from_coords(N, &coords).unwrap());
    let mut pm = BatchCsr::zeros(NS, p).unwrap();
    for i in 0..NS {
        pm.fill_system(i, |r, c| m.get(i, inv[r], inv[c]));
    }
    let pb = BatchVectors::from_fn(m.dims(), |i, r| b.system(i)[inv[r]]);
    (pm, pb)
}

fn run_scaling_relation<S: IterativeSolver<f64>>(solver: &S, tol: f64) {
    let m = batch(11);
    let b = rhs(&m);
    let base = solve(solver, &m, &b);

    let (sm, sb) = scaled_system(&m, &b);
    let scaled = solve(solver, &sm, &sb);

    for i in 0..NS {
        let d = scaling(i);
        // x = D x'
        let recovered: Vec<f64> = scaled
            .x
            .system(i)
            .iter()
            .zip(&d)
            .map(|(xv, dv)| xv * dv)
            .collect();
        assert_close(solver.name(), i, &recovered, base.x.system(i), tol);
    }
    assert_iterations_close(solver.name(), &scaled.iterations, &base.iterations);
}

fn run_permutation_relation<S: IterativeSolver<f64>>(solver: &S, tol: f64) {
    let m = batch(29);
    let b = rhs(&m);
    let base = solve(solver, &m, &b);

    let perm = permutation();
    let (pm, pb) = permuted_system(&m, &b, &perm);
    let permuted = solve(solver, &pm, &pb);

    for i in 0..NS {
        // x = Pᵀ x': original row r lives at permuted row perm[r].
        let recovered: Vec<f64> = (0..N).map(|r| permuted.x.system(i)[perm[r]]).collect();
        assert_close(solver.name(), i, &recovered, base.x.system(i), tol);
    }
    assert_iterations_close(solver.name(), &permuted.iterations, &base.iterations);
}

#[test]
fn bicgstab_is_invariant_under_symmetric_scaling() {
    run_scaling_relation(&BatchBicgstab::new(Jacobi, RelResidual::new(1e-10)), 1e-6);
}

#[test]
fn cg_is_invariant_under_symmetric_scaling() {
    run_scaling_relation(&BatchCg::new(Jacobi, RelResidual::new(1e-10)), 1e-6);
}

#[test]
fn gmres_is_invariant_under_symmetric_scaling() {
    run_scaling_relation(&BatchGmres::new(Jacobi, RelResidual::new(1e-10), 25), 1e-6);
}

#[test]
fn bicgstab_is_invariant_under_row_permutation() {
    run_permutation_relation(&BatchBicgstab::new(Jacobi, RelResidual::new(1e-10)), 1e-6);
}

#[test]
fn cg_is_invariant_under_row_permutation() {
    run_permutation_relation(&BatchCg::new(Jacobi, RelResidual::new(1e-10)), 1e-6);
}

#[test]
fn gmres_is_invariant_under_row_permutation() {
    run_permutation_relation(&BatchGmres::new(Jacobi, RelResidual::new(1e-10), 25), 1e-6);
}

/// Symmetric (hence SPD) fill of the same stencil, for the CG pair.
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

/// Per-system true residual norms `||b - A x||`.
fn true_residuals<M: BatchMatrix<f64>>(
    m: &M,
    x: &BatchVectors<f64>,
    b: &BatchVectors<f64>,
) -> Vec<f64> {
    let mut ax = BatchVectors::zeros(m.dims());
    m.spmv(x, &mut ax).unwrap();
    (0..m.dims().num_systems)
        .map(|i| {
            b.system(i)
                .iter()
                .zip(ax.system(i))
                .map(|(bv, av)| (bv - av) * (bv - av))
                .sum::<f64>()
                .sqrt()
        })
        .collect()
}

/// Pipelined-vs-classical equivalence: the recurrence reformulation is
/// the "transform" here. It merges the iteration's dot-products into one
/// fused reduction and advances the residual by scalar recurrences, so
/// the floats round differently — but the Krylov trajectory is the same
/// up to that rounding. The relation: iteration counts within ±1 and
/// true residuals `||b - A x||` within `10 * eps * ||b||` of each other.
fn run_pipelined_relation<SC, SP, M>(classical: &SC, pipelined: &SP, m: &M)
where
    SC: IterativeSolver<f64>,
    SP: IterativeSolver<f64>,
    M: BatchMatrix<f64>,
{
    let b = rhs_dims(m.dims());
    let base = solve(classical, m, &b);
    let pipe = solve(pipelined, m, &b);
    assert_iterations_close(pipelined.name(), &pipe.iterations, &base.iterations);

    let res_base = true_residuals(m, &base.x, &b);
    let res_pipe = true_residuals(m, &pipe.x, &b);
    for i in 0..m.dims().num_systems {
        let bnorm = b.system(i).iter().map(|v| v * v).sum::<f64>().sqrt();
        let bound = 10.0 * f64::EPSILON * bnorm;
        assert!(
            (res_pipe[i] - res_base[i]).abs() <= bound,
            "{}: system {i} true residual {:.3e} vs classical {:.3e} \
             (bound {bound:.3e})",
            pipelined.name(),
            res_pipe[i],
            res_base[i]
        );
    }
}

fn rhs_dims(dims: batsolv_types::BatchDims) -> BatchVectors<f64> {
    BatchVectors::from_fn(dims, |s, r| ((s * 41 + r * 5) as f64 * 0.083).sin())
}

#[test]
fn pipelined_bicgstab_is_equivalent_to_classical() {
    let stop = RelResidual::new(1e-10);
    run_pipelined_relation(
        &BatchBicgstab::new(Jacobi, stop),
        &PipelinedBicgstab::new(Jacobi, stop),
        &batch(31),
    );
}

#[test]
fn pipelined_cg_is_equivalent_to_classical() {
    let stop = RelResidual::new(1e-10);
    run_pipelined_relation(
        &BatchCg::new(Jacobi, stop),
        &PipelinedCg::new(Jacobi, stop),
        &spd_batch(31),
    );
}

/// The pipelined equivalence must also hold on the fast ELL path
/// (column-major) — the layout the executor actually runs.
#[test]
fn pipelined_equivalence_holds_on_ell_column_major() {
    let stop = RelResidual::new(1e-10);
    run_pipelined_relation(
        &BatchBicgstab::new(Jacobi, stop),
        &PipelinedBicgstab::new(Jacobi, stop),
        &BatchEll::from_csr(&batch(31)).unwrap(),
    );
}

/// The relations must also hold on the fast ELL path (column-major) —
/// the layout the executor actually runs.
#[test]
fn scaling_relation_holds_on_ell_column_major() {
    let solver = BatchBicgstab::new(Jacobi, RelResidual::new(1e-10));
    let m = batch(53);
    let b = rhs(&m);
    let base = solve(&solver, &BatchEll::from_csr(&m).unwrap(), &b);

    let (sm, sb) = scaled_system(&m, &b);
    let scaled = solve(&solver, &BatchEll::from_csr(&sm).unwrap(), &sb);
    for i in 0..NS {
        let d = scaling(i);
        let recovered: Vec<f64> = scaled
            .x
            .system(i)
            .iter()
            .zip(&d)
            .map(|(xv, dv)| xv * dv)
            .collect();
        assert_close("bicgstab/ell", i, &recovered, base.x.system(i), 1e-6);
    }
    assert_iterations_close("bicgstab/ell", &scaled.iterations, &base.iterations);
}

// ---------------------------------------------------------------------------
// Block-Jacobi invariances.
// ---------------------------------------------------------------------------

use batsolv_solvers::BlockJacobi;

/// Block size dividing `N = 42` exactly, so block-aligned permutations
/// move whole blocks.
const BS: usize = 6;

/// Symmetric diagonal scaling commutes with the block-diagonal extract:
/// the scaled system's blocks are `D_b A_b D_b`, so the block-Jacobi
/// preconditioned iteration is similarity-invariant like Jacobi's.
#[test]
fn block_jacobi_is_invariant_under_symmetric_scaling() {
    run_scaling_relation(
        &BatchBicgstab::new(BlockJacobi::new(BS), RelResidual::new(1e-10)),
        1e-6,
    );
}

/// A permutation that reorders whole `BS`-row blocks (intra-block order
/// preserved). Arbitrary row permutations would scramble which rows
/// share a block — only block-aligned ones leave the preconditioner
/// equivariant.
fn block_permutation() -> Vec<usize> {
    let nb = N / BS;
    let a = (1..nb).find(|a| gcd(*a, nb) == 1 && *a > nb / 3).unwrap();
    (0..N)
        .map(|r| ((a * (r / BS) + 2) % nb) * BS + r % BS)
        .collect()
}

#[test]
fn block_jacobi_is_invariant_under_block_permutation() {
    let solver = BatchBicgstab::new(BlockJacobi::new(BS), RelResidual::new(1e-10));
    let m = batch(29);
    let b = rhs(&m);
    let base = solve(&solver, &m, &b);

    let perm = block_permutation();
    let (pm, pb) = permuted_system(&m, &b, &perm);
    let permuted = solve(&solver, &pm, &pb);
    for i in 0..NS {
        let recovered: Vec<f64> = (0..N).map(|r| permuted.x.system(i)[perm[r]]).collect();
        assert_close(solver.name(), i, &recovered, base.x.system(i), 1e-6);
    }
    assert_iterations_close(solver.name(), &permuted.iterations, &base.iterations);
}
