//! Property-based tests of solver components: stopping criteria,
//! workspace planning, preconditioner correctness, direct-solver
//! round-trips.

use std::sync::Arc;

use batsolv_formats::{BatchBanded, BatchCsr, BatchMatrix, BatchVectors, SparsityPattern};
use batsolv_gpusim::DeviceSpec;
use batsolv_solvers::direct::banded_lu::{gbtrf, gbtrs};
use batsolv_solvers::precond::Preconditioner;
use batsolv_solvers::workspace::{WorkspacePlan, BICGSTAB_VECTORS};
use batsolv_solvers::{
    AbsResidual, BatchBicgstab, BlockJacobi, Identity, Ilu0, IterativeSolver, Jacobi,
    LevelSchedule, RelResidual, StopCriterion,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn abs_criterion_is_a_threshold(tol in 1e-14f64..1e-2, res in 1e-16f64..1.0) {
        let s = AbsResidual::new(tol);
        prop_assert_eq!(s.is_converged(res, 1.0, 1.0), res < tol);
    }

    #[test]
    fn rel_criterion_is_scale_invariant(
        factor in 1e-12f64..1e-2,
        res in 1e-16f64..1.0,
        res0 in 1e-8f64..1e8,
        scale in 1e-6f64..1e6,
    ) {
        let s = RelResidual::new(factor);
        prop_assert_eq!(
            s.is_converged(res, res0, 1.0),
            s.is_converged(res * scale, res0 * scale, 1.0)
        );
    }

    #[test]
    fn workspace_plan_respects_budget(budget_kb in 0usize..256, n in 8usize..4096) {
        let plan = WorkspacePlan::plan::<f64>(budget_kb * 1024, n, &BICGSTAB_VECTORS);
        prop_assert!(plan.shared_bytes <= budget_kb * 1024);
        prop_assert_eq!(plan.num_shared() + plan.num_global(), 9);
        prop_assert_eq!(plan.shared_bytes, plan.num_shared() * n * 8);
        // Greedy maximality: if a vector spilled, no more would fit.
        if plan.num_global() > 0 {
            prop_assert!(plan.shared_bytes + n * 8 > budget_kb * 1024);
        }
    }

    #[test]
    fn workspace_red_vectors_have_priority(budget_kb in 0usize..256, n in 8usize..4096) {
        use batsolv_blas::counts::MemSpace;
        let plan = WorkspacePlan::plan::<f64>(budget_kb * 1024, n, &BICGSTAB_VECTORS);
        // If any SpMV vector spilled, then no non-SpMV vector may be shared.
        let red_spilled = ["p_hat", "v", "s_hat", "t"]
            .iter()
            .any(|v| plan.space_of(v) == MemSpace::Global);
        if red_spilled {
            for blue in ["r", "r_hat", "p", "s", "x"] {
                prop_assert_eq!(plan.space_of(blue), MemSpace::Global);
            }
        }
    }

    #[test]
    fn jacobi_applied_to_diagonal_matrix_is_exact_inverse(
        diag in proptest::collection::vec(0.1f64..10.0, 2..20),
    ) {
        let n = diag.len();
        let coords: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        let p = Arc::new(SparsityPattern::from_coords(n, &coords).unwrap());
        let mut m = BatchCsr::<f64>::zeros(1, p).unwrap();
        for (i, &d) in diag.iter().enumerate() {
            m.set(0, i, i, d).unwrap();
        }
        let state = Preconditioner::<f64>::generate(&Jacobi, &m, 0).unwrap();
        let input: Vec<f64> = diag.clone();
        let mut out = vec![0.0; n];
        Jacobi.apply(&state, &input, &mut out);
        for v in out {
            prop_assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ilu0_is_exact_when_pattern_has_no_fill(
        n in 3usize..24,
        seed in 0u64..10_000,
    ) {
        // Tridiagonal pattern: ILU(0) == LU exactly.
        let coords: Vec<(usize, usize)> = (0..n)
            .flat_map(|r| {
                let mut v = vec![(r, r)];
                if r > 0 { v.push((r, r - 1)); }
                if r + 1 < n { v.push((r, r + 1)); }
                v
            })
            .collect();
        let p = Arc::new(SparsityPattern::from_coords(n, &coords).unwrap());
        let mut m = BatchCsr::<f64>::zeros(1, p.clone()).unwrap();
        m.fill_system(0, |r, c| {
            let h = ((seed as usize + r * 7 + c * 13) % 10) as f64 / 10.0;
            if r == c { 4.0 + h } else { -1.0 + 0.3 * h }
        });
        let ilu = Ilu0::new(p);
        let st = Preconditioner::<f64>::generate(&ilu, &m, 0).unwrap();
        let x: Vec<f64> = (0..n).map(|k| ((seed as usize + k) % 9) as f64 * 0.3 - 1.0).collect();
        let mut ax = vec![0.0; n];
        m.spmv_system(0, &x, &mut ax);
        let mut back = vec![0.0; n];
        ilu.apply(&st, &ax, &mut back);
        for k in 0..n {
            prop_assert!((back[k] - x[k]).abs() < 1e-9, "row {k}");
        }
    }


    #[test]
    fn ilu0_on_triangular_matrix_is_exact_lu(
        n in 3usize..24,
        seed in 0u64..10_000,
    ) {
        // Lower-triangular pattern (diag + two subdiagonals): the exact
        // LU factorization has no fill outside the pattern, so ILU(0)
        // IS the exact factorization and one apply solves the system.
        let coords: Vec<(usize, usize)> = (0..n)
            .flat_map(|r| {
                let mut v = vec![(r, r)];
                if r > 0 { v.push((r, r - 1)); }
                if r > 1 { v.push((r, r - 2)); }
                v
            })
            .collect();
        let p = Arc::new(SparsityPattern::from_coords(n, &coords).unwrap());
        let mut m = BatchCsr::<f64>::zeros(1, p.clone()).unwrap();
        m.fill_system(0, |r, c| {
            let h = ((seed as usize + r * 11 + c * 5) % 10) as f64 / 10.0;
            if r == c { 3.0 + h } else { -0.8 + 0.4 * h }
        });
        let ilu = Ilu0::new(p);
        let st = Preconditioner::<f64>::generate(&ilu, &m, 0).unwrap();
        let x: Vec<f64> = (0..n).map(|k| ((seed as usize + 3 * k) % 7) as f64 * 0.4 - 1.1).collect();
        let mut ax = vec![0.0; n];
        m.spmv_system(0, &x, &mut ax);
        let mut back = vec![0.0; n];
        ilu.apply(&st, &ax, &mut back);
        for k in 0..n {
            prop_assert!((back[k] - x[k]).abs() < 1e-9, "row {k}: {} vs {}", back[k], x[k]);
        }
    }

    #[test]
    fn ilu0_on_diagonal_matrix_divides_by_the_diagonal(
        diag in proptest::collection::vec(0.2f64..8.0, 2..20),
    ) {
        let n = diag.len();
        let coords: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        let p = Arc::new(SparsityPattern::from_coords(n, &coords).unwrap());
        let mut m = BatchCsr::<f64>::zeros(1, p.clone()).unwrap();
        for (i, &d) in diag.iter().enumerate() {
            m.set(0, i, i, d).unwrap();
        }
        let ilu = Ilu0::new(p);
        let st = Preconditioner::<f64>::generate(&ilu, &m, 0).unwrap();
        let input: Vec<f64> = (0..n).map(|k| 1.0 + k as f64 * 0.3).collect();
        let mut out = vec![0.0; n];
        ilu.apply(&st, &input, &mut out);
        for k in 0..n {
            prop_assert!((out[k] - input[k] / diag[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn preconditioned_bicgstab_needs_no_more_iterations(
        seed in 0u64..500,
        spread in 1.0f64..6.0,
    ) {
        // SPD stencil whose rows are scaled by up to `spread`: the
        // ladder preconditioners normalize that scale away, so each
        // rung needs at most one iteration more than the
        // unpreconditioned (Identity) run — and usually fewer.
        let (nx, ny) = (6, 5);
        let n = nx * ny;
        let p = Arc::new(SparsityPattern::stencil_2d(nx, ny, true));
        let mut m = BatchCsr::<f64>::zeros(2, p.clone()).unwrap();
        for s in 0..2 {
            m.fill_system(s, |r, c| {
                let (lo, hi) = (r.min(c), r.max(c));
                let row_scale = |row: usize| {
                    1.0 + (spread - 1.0)
                        * (((seed as usize).wrapping_mul(31) + row * 17 + s) % 97) as f64
                        / 96.0
                };
                let base = if r == c { 9.0 } else { -0.6 - 0.1 * ((lo + hi) % 4) as f64 };
                base * row_scale(lo).sqrt() * row_scale(hi).sqrt()
            });
        }
        let b = BatchVectors::from_fn(m.dims(), |s, r| 1.0 + ((s * 13 + r) % 7) as f64 * 0.2);
        let device = DeviceSpec::v100();
        let iters = |rep: &batsolv_solvers::BatchSolveReport| -> Vec<u32> {
            rep.per_system.iter().map(|s| s.iterations).collect()
        };
        let stop = RelResidual::new(1e-8);
        let mut x0 = BatchVectors::zeros(m.dims());
        let base = BatchBicgstab::new(Identity, stop)
            .solve_batch(&device, &m, &b, &mut x0)
            .unwrap();
        let base_iters = iters(&base);

        macro_rules! check {
            ($name:literal, $precond:expr) => {
                let mut x = BatchVectors::zeros(m.dims());
                let rep = BatchBicgstab::new($precond, stop.clone())
                    .solve_batch(&device, &m, &b, &mut x)
                    .unwrap();
                for (i, (pi, bi)) in iters(&rep).iter().zip(&base_iters).enumerate() {
                    prop_assert!(
                        *pi <= bi + 1,
                        "{}: system {i} took {pi} iterations vs unpreconditioned {bi}",
                        $name
                    );
                }
            };
        }
        check!("jacobi", Jacobi);
        check!("block-jacobi", BlockJacobi::new(5));
        check!("ilu0", Ilu0::new(Arc::clone(&p)));
        let _ = n;
    }

    #[test]
    fn trisolve_syncs_are_monotone_in_level_count(
        n in 2usize..30,
        extra in 1usize..8,
    ) {
        // A 1D chain's triangular solves are fully sequential: each row
        // depends on the previous, so levels == rows and lengthening
        // the chain must never reduce the barrier count.
        let chain = |len: usize| {
            let coords: Vec<(usize, usize)> = (0..len)
                .flat_map(|r| {
                    let mut v = vec![(r, r)];
                    if r > 0 { v.push((r, r - 1)); }
                    v
                })
                .collect();
            LevelSchedule::build(&SparsityPattern::from_coords(len, &coords).unwrap())
        };
        let short = chain(n);
        let long = chain(n + extra);
        prop_assert!(long.total_levels() > short.total_levels());
        prop_assert!(long.apply_syncs() > short.apply_syncs());
        prop_assert_eq!(short.apply_syncs(), short.total_levels() as u64 - 1);
    }

    #[test]
    fn banded_lu_reconstructs_solutions(
        n in 4usize..40,
        kl in 1usize..3,
        ku in 1usize..3,
        seed in 0u64..10_000,
    ) {
        prop_assume!(kl < n && ku < n);
        let mut banded = BatchBanded::<f64>::zeros(1, n, kl, ku).unwrap();
        for r in 0..n {
            for c in r.saturating_sub(kl)..=(r + ku).min(n - 1) {
                let h = ((seed as usize + r * 31 + c * 17) % 100) as f64 / 100.0;
                *banded.at_mut(0, r, c) = if r == c { 5.0 + h } else { h - 0.5 };
            }
        }
        let x_true: Vec<f64> = (0..n).map(|k| ((k * 7 + seed as usize) % 11) as f64 * 0.2 - 1.0).collect();
        let mut b = vec![0.0; n];
        banded.spmv_system(0, &x_true, &mut b);
        let mut ab = banded.ab_of(0).to_vec();
        let mut piv = vec![0usize; n];
        gbtrf(n, kl, ku, banded.ldab(), &mut ab, &mut piv).unwrap();
        gbtrs(n, kl, ku, banded.ldab(), &ab, &piv, &mut b);
        for k in 0..n {
            prop_assert!((b[k] - x_true[k]).abs() < 1e-9, "row {k}: {} vs {}", b[k], x_true[k]);
        }
    }

}
