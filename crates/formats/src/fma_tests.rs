//! Each SpMV kernel's hardware-FMA copy against its portable copy: the
//! same bits on seeded inputs that include ±0, subnormals, ±Inf and NaN.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{
    csr, dense, dia, ell, BatchCsr, BatchDense, BatchDia, BatchEll, SparsityPattern, ValueLayout,
};

/// Seeded values over many magnitudes, with ±0, subnormals, ±Inf and
/// NaN mixed in one time in `every`.
pub(crate) fn awkward(rng: &mut StdRng, n: usize, every: u64) -> Vec<f64> {
    const SPECIAL: [f64; 8] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 3.0,
        -4.9e-324,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MAX,
    ];
    (0..n)
        .map(|_| {
            if rng.gen::<u64>() % every == 0 {
                SPECIAL[rng.gen::<usize>() % SPECIAL.len()]
            } else {
                let exp = (rng.gen::<u64>() % 64) as i32 - 32;
                rng.gen_range_f64(-1.0, 1.0) * 2f64.powi(exp)
            }
        })
        .collect()
}

/// Run one kernel call through both copies, each into its own `y`.
fn pin(what: &str, n: usize, hardware: impl Fn(&mut [f64]), portable: impl Fn(&mut [f64])) {
    let (mut h, mut p) = (vec![0.5; n], vec![0.5; n]);
    hardware(&mut h);
    portable(&mut p);
    assert!(
        h.iter().zip(&p).all(|(a, b)| a.to_bits() == b.to_bits()),
        "{what}: hardware {h:?} vs portable {p:?}"
    );
}

#[test]
fn spmv_copies_are_bitwise_identical() {
    if !batsolv_types::fma::detected() {
        eprintln!("no hardware FMA on this CPU: only the portable copy runs");
        return;
    }
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for (nx, ny) in [(4, 3), (5, 4), (8, 7)] {
        let pattern = Arc::new(SparsityPattern::stencil_2d(nx, ny, true));
        let (n, nnz) = (pattern.num_rows(), pattern.nnz());
        let mut csr = BatchCsr::<f64>::zeros(3, Arc::clone(&pattern)).unwrap();
        for vals in csr.systems_mut() {
            vals.copy_from_slice(&awkward(&mut rng, nnz, 40));
        }
        let dense = BatchDense::from_csr(&csr);
        let ell = [ValueLayout::ColMajor, ValueLayout::RowMajor]
            .map(|layout| BatchEll::from_csr_in(&csr, layout).unwrap());
        let dia = [ValueLayout::ColMajor, ValueLayout::RowMajor]
            .map(|layout| BatchDia::from_csr_in(&csr, 9, layout).unwrap());
        for trial in 0..4 {
            let x = awkward(&mut rng, n, 40);
            for i in 0..3 {
                let what = |format: &str| format!("{format} {nx}x{ny} system {i} trial {trial}");
                let (ptrs, cols, vals) = (pattern.row_ptrs(), pattern.col_idxs(), csr.values_of(i));
                pin(
                    &what("csr"),
                    n,
                    |y| csr::spmv::hardware(ptrs, cols, vals, &x, y),
                    |y| csr::spmv::portable(ptrs, cols, vals, &x, y),
                );
                let a = dense.matrix_of(i);
                pin(
                    &what("dense"),
                    n,
                    |y| dense::spmv::hardware(a, &x, y),
                    |y| dense::spmv::portable(a, &x, y),
                );
                let [col, row] = &ell;
                let (runs, cc, cv) = (col.stencil_runs(), col.col_idxs(), col.values_of(i));
                pin(
                    &what("ell col-major"),
                    n,
                    |y| ell::spmv_col_major::hardware(runs, cc, cv, &x, y),
                    |y| ell::spmv_col_major::portable(runs, cc, cv, &x, y),
                );
                let (w, rc, rv) = (row.width(), row.col_idxs(), row.values_of(i));
                pin(
                    &what("ell row-major"),
                    n,
                    |y| ell::spmv_row_major::hardware(w, rc, rv, &x, y),
                    |y| ell::spmv_row_major::portable(w, rc, rv, &x, y),
                );
                let [col, row] = &dia;
                let (co, cv) = (col.offsets(), col.values_of(i));
                pin(
                    &what("dia col-major"),
                    n,
                    |y| dia::spmv_col_major::hardware(co, cv, &x, y),
                    |y| dia::spmv_col_major::portable(co, cv, &x, y),
                );
                let (ro, rv) = (row.offsets(), row.values_of(i));
                pin(
                    &what("dia row-major"),
                    n,
                    |y| dia::spmv_row_major::hardware(ro, rv, &x, y),
                    |y| dia::spmv_row_major::portable(ro, rv, &x, y),
                );
            }
        }
    }
}
