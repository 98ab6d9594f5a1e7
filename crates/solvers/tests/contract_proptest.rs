//! Property tests of the solver *result contract*, for every solver in
//! the crate:
//!
//! 1. whenever a `breakdown` is reported, `converged == false` and the
//!    returned `x` contains no non-finite entries (the sanitizer
//!    restores the pre-solve iterate instead of leaking NaN/Inf);
//! 2. `x` is finite unconditionally — poisoned inputs degrade to a
//!    structured failure, never to a poisoned output;
//! 3. whenever a system converges with no breakdown, the *true*
//!    residual `‖b − A x‖₂` matches the reported residual.
//!
//! Each case drives a 4-system batch through the solver: a clean
//! diagonally dominant system, a NaN-poisoned one, a structurally
//! singular one (zero row), and a weakly dominant straggler.

use std::sync::Arc;

use batsolv_formats::{
    BatchBanded, BatchCsr, BatchDense, BatchMatrix, BatchVectors, SparsityPattern,
};
use batsolv_gpusim::DeviceSpec;
use batsolv_solvers::direct::{BatchBandedLu, BatchDenseLu, BatchSparseQr};
use batsolv_solvers::monolithic::MonolithicBicgstab;
use batsolv_solvers::{
    AbsResidual, BatchBicgstab, BatchCg, BatchCgs, BatchGmres, BatchRichardson, Jacobi,
    MixedPrecisionBicgstab, SystemResult,
};
use batsolv_types::BatchDims;
use proptest::prelude::*;

const TOL: f64 = 1e-8;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Poison {
    Clean,
    NanValue,
    ZeroRow,
    Weak,
}

const LINEUP: [Poison; 4] = [
    Poison::Clean,
    Poison::NanValue,
    Poison::ZeroRow,
    Poison::Weak,
];

fn tridiag_pattern(n: usize) -> Arc<SparsityPattern> {
    let mut coords = Vec::new();
    for r in 0..n {
        if r > 0 {
            coords.push((r, r - 1));
        }
        coords.push((r, r));
        if r + 1 < n {
            coords.push((r, r + 1));
        }
    }
    Arc::new(SparsityPattern::from_coords(n, &coords).unwrap())
}

/// Symmetric tridiagonal batch (CG needs SPD) with one system per
/// `LINEUP` entry, plus matching RHS.
fn build_batch(n: usize, seed: u64) -> (BatchCsr<f64>, BatchVectors<f64>) {
    let pattern = tridiag_pattern(n);
    let mut a = BatchCsr::<f64>::zeros(LINEUP.len(), Arc::clone(&pattern)).unwrap();
    let h = |k: usize| ((seed as usize + k * 131) % 100) as f64 / 100.0;
    for (s, poison) in LINEUP.iter().enumerate() {
        let diag_base = if *poison == Poison::Weak { 2.05 } else { 5.0 };
        a.fill_system(s, |r, c| {
            if r == c {
                diag_base + h(r)
            } else {
                // Symmetric off-diagonal: keyed by the unordered pair.
                -1.0 + 0.3 * h(r.min(c))
            }
        });
        match poison {
            Poison::NanValue => {
                let vals = a.values_of_mut(s);
                let k = seed as usize % vals.len();
                vals[k] = f64::NAN;
            }
            Poison::ZeroRow => {
                let row = seed as usize % n;
                let (lo, hi) = pattern.row_range(row);
                for v in &mut a.values_of_mut(s)[lo..hi] {
                    *v = 0.0;
                }
            }
            Poison::Clean | Poison::Weak => {}
        }
    }
    let dims = BatchDims::new(LINEUP.len(), n).unwrap();
    let rhs: Vec<f64> = (0..dims.total_rows()).map(|k| 0.5 + h(k)).collect();
    let b = BatchVectors::from_values(dims, rhs).unwrap();
    (a, b)
}

fn true_residual(a: &impl BatchMatrix<f64>, i: usize, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; x.len()];
    a.spmv_system(i, x, &mut ax);
    ax.iter()
        .zip(b)
        .map(|(av, bv)| (bv - av) * (bv - av))
        .sum::<f64>()
        .sqrt()
}

/// The contract assertions shared by every solver check.
fn check_contract(
    solver: &str,
    a: &impl BatchMatrix<f64>,
    b: &BatchVectors<f64>,
    x: &BatchVectors<f64>,
    per_system: &[SystemResult],
) {
    for (i, r) in per_system.iter().enumerate() {
        let xi = x.system(i);
        assert!(
            xi.iter().all(|v| v.is_finite()),
            "{solver}/system {i}: non-finite x leaked (converged={}, breakdown={:?})",
            r.converged,
            r.breakdown
        );
        if r.breakdown.is_some() {
            assert!(
                !r.converged,
                "{solver}/system {i}: breakdown {:?} reported as converged",
                r.breakdown
            );
        }
        if r.converged && r.breakdown.is_none() {
            let t = true_residual(a, i, xi, b.system(i));
            assert!(
                (t - r.residual).abs() <= 1e-6 * (1.0 + t.max(r.residual)),
                "{solver}/system {i}: reported residual {} but true residual {t}",
                r.residual
            );
        }
    }
}

/// Poisoned / singular members must come back failed, not silently
/// "converged" — otherwise the contract test proves nothing.
fn check_poison_failed(solver: &str, per_system: &[SystemResult]) {
    for (i, poison) in LINEUP.iter().enumerate() {
        if matches!(poison, Poison::NanValue | Poison::ZeroRow) {
            assert!(
                !per_system[i].converged,
                "{solver}/system {i}: a {poison:?} system cannot converge"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn iterative_solvers_honor_the_result_contract(
        n in 4usize..20,
        seed in 0u64..100_000,
    ) {
        let device = DeviceSpec::v100();
        let (a, b) = build_batch(n, seed);
        let dims = a.dims();

        let mut x = BatchVectors::zeros(dims);
        let rep = BatchBicgstab::new(Jacobi, AbsResidual::new(TOL))
            .with_max_iters(60)
            .solve(&device, &a, &b, &mut x).unwrap();
        check_contract("bicgstab", &a, &b, &x, &rep.per_system);
        check_poison_failed("bicgstab", &rep.per_system);

        let mut x = BatchVectors::zeros(dims);
        let rep = BatchCg::new(Jacobi, AbsResidual::new(TOL))
            .with_max_iters(120)
            .solve(&device, &a, &b, &mut x).unwrap();
        check_contract("cg", &a, &b, &x, &rep.per_system);
        check_poison_failed("cg", &rep.per_system);

        let mut x = BatchVectors::zeros(dims);
        let rep = BatchCgs::new(Jacobi, AbsResidual::new(TOL))
            .with_max_iters(60)
            .solve(&device, &a, &b, &mut x).unwrap();
        check_contract("cgs", &a, &b, &x, &rep.per_system);

        let mut x = BatchVectors::zeros(dims);
        let rep = BatchGmres::new(Jacobi, AbsResidual::new(TOL), 20)
            .with_max_iters(80)
            .solve(&device, &a, &b, &mut x).unwrap();
        check_contract("gmres", &a, &b, &x, &rep.per_system);
        check_poison_failed("gmres", &rep.per_system);

        let mut x = BatchVectors::zeros(dims);
        let rep = BatchRichardson::new(Jacobi, AbsResidual::new(TOL), 0.9)
            .with_max_iters(200)
            .solve(&device, &a, &b, &mut x).unwrap();
        check_contract("richardson", &a, &b, &x, &rep.per_system);
    }

    #[test]
    fn direct_solvers_honor_the_result_contract(
        n in 4usize..20,
        seed in 0u64..100_000,
    ) {
        let device = DeviceSpec::v100();
        let (a, b) = build_batch(n, seed);
        let dims = a.dims();
        let banded = BatchBanded::from_csr(&a).unwrap();
        let dense = BatchDense::from_csr(&a);

        let mut x = BatchVectors::zeros(dims);
        let rep = BatchBandedLu.solve(&device, &banded, &b, &mut x).unwrap();
        check_contract("banded-lu", &banded, &b, &x, &rep.per_system);
        check_poison_failed("banded-lu", &rep.per_system);

        let mut x = BatchVectors::zeros(dims);
        let rep = BatchSparseQr.solve(&device, &banded, &b, &mut x).unwrap();
        check_contract("sparse-qr", &banded, &b, &x, &rep.per_system);

        let mut x = BatchVectors::zeros(dims);
        let rep = BatchDenseLu.solve(&device, &dense, &b, &mut x).unwrap();
        check_contract("dense-lu", &dense, &b, &x, &rep.per_system);
        check_poison_failed("dense-lu", &rep.per_system);
    }

    #[test]
    fn composite_solvers_honor_the_result_contract(
        n in 4usize..16,
        seed in 0u64..100_000,
    ) {
        let device = DeviceSpec::v100();
        let (a, b) = build_batch(n, seed);
        let dims = a.dims();

        // Monolithic: one poisoned member corrupts the single global
        // solve, so *no* system may report converged — and x must still
        // come back finite for all of them.
        let mut x = BatchVectors::zeros(dims);
        let mut mono = MonolithicBicgstab::new(Jacobi, AbsResidual::new(TOL));
        mono.max_iters = 60;
        let rep = mono.solve(&device, &a, &b, &mut x).unwrap();
        check_contract("monolithic", &a, &b, &x, &rep.per_system);
        assert!(
            rep.per_system.iter().all(|r| !r.converged),
            "monolithic: global convergence is impossible with a NaN member"
        );

        // Mixed-precision refinement.
        let mut x = BatchVectors::zeros(dims);
        let rep = MixedPrecisionBicgstab::default().solve(&device, &a, &b, &mut x).unwrap();
        check_contract("refinement", &a, &b, &x, &rep.per_system);
        check_poison_failed("refinement", &rep.per_system);
    }
}
