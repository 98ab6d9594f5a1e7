//! The column-major ELL kernel walks each slot as unit-stride runs plus
//! gathered rows. These tests pin its table and compare it with the
//! row-major gather kernel, which sums each row in the same order, bit for
//! bit.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ell::{self, BatchEll, ELL_PAD, MIN_RUN};
use crate::fma_tests::awkward;
use crate::{BatchCsr, BatchMatrix, SparsityPattern, ValueLayout};

/// A ragged pattern (row widths 2–4) whose every stretch is shorter than
/// [`MIN_RUN`], so the column-major kernel gathers every stored row.
fn scattered() -> SparsityPattern {
    let n = 23;
    let coords: Vec<(usize, usize)> = (0..n)
        .flat_map(|r| {
            let mut cols = vec![r, (r * 7 + 3) % n];
            if r % 3 != 0 {
                cols.push((r * 11 + 5) % n);
            }
            if r % 4 == 1 {
                cols.push((r * 5 + 1) % n);
            }
            cols.into_iter().map(move |c| (r, c))
        })
        .collect();
    SparsityPattern::from_coords(n, &coords).unwrap()
}

/// Every pattern the tests walk, with a name for failure messages.
fn patterns() -> Vec<(&'static str, SparsityPattern)> {
    vec![
        (
            "nine-point 32x31",
            SparsityPattern::stencil_2d(32, 31, true),
        ),
        ("nine-point 8x9", SparsityPattern::stencil_2d(8, 9, true)),
        // Interior stretches of exactly `MIN_RUN` rows.
        ("nine-point 5x4", SparsityPattern::stencil_2d(5, 4, true)),
        ("nine-point 3x3", SparsityPattern::stencil_2d(3, 3, true)),
        ("five-point 7x5", SparsityPattern::stencil_2d(7, 5, false)),
        ("scattered 23", scattered()),
    ]
}

/// Runs and gathered rows summed over every slot.
fn table_counts(ell: &BatchEll<f64>) -> (usize, usize) {
    let runs = ell.stencil_runs();
    (0..ell.width()).fold((0, 0), |(r, g), k| {
        (r + runs.runs(k).count(), g + runs.gathered(k).len())
    })
}

#[test]
fn runs_gathers_and_pads_cover_each_slot_once() {
    for (name, pattern) in patterns() {
        let n = pattern.num_rows();
        let ell = BatchEll::<f64>::zeros(1, Arc::new(pattern)).unwrap();
        let runs = ell.stencil_runs();
        for k in 0..ell.width() {
            let cols = &ell.col_idxs()[k * n..(k + 1) * n];
            let mut seen = vec![0u32; n];
            for (r, c, len) in runs.runs(k) {
                assert!(len >= MIN_RUN, "{name} slot {k}: run of {len} at row {r}");
                for j in 0..len {
                    assert_eq!(cols[r + j] as usize, c + j, "{name} slot {k} row {}", r + j);
                    seen[r + j] += 1;
                }
                // Maximal: neither neighbour continues the run.
                let continues = |row: usize, col: usize| cols[row] as usize == col;
                assert!(
                    r == 0 || c == 0 || !continues(r - 1, c - 1),
                    "{name} slot {k}"
                );
                assert!(
                    r + len == n || !continues(r + len, c + len),
                    "{name} slot {k}"
                );
            }
            let gathered = runs.gathered(k);
            assert!(gathered.windows(2).all(|w| w[0] < w[1]), "{name} slot {k}");
            for &r in gathered {
                let r = r as usize;
                assert_ne!(cols[r], ELL_PAD, "{name} slot {k}: gathered pad");
                // Only a stretch shorter than `MIN_RUN` is gathered.
                let rises = |row: usize| {
                    cols[row] != ELL_PAD && cols[row - 1].checked_add(1) == Some(cols[row])
                };
                let first = (1..=r).rev().find(|&row| !rises(row)).unwrap_or(0);
                let end = (r + 1..n).find(|&row| !rises(row)).unwrap_or(n);
                assert!(end - first < MIN_RUN, "{name} slot {k}: row {r} gathered");
                seen[r] += 1;
            }
            for r in (0..n).filter(|&r| cols[r] == ELL_PAD) {
                seen[r] += 1;
            }
            assert!(seen.iter().all(|&s| s == 1), "{name} slot {k}: {seen:?}");
        }
    }

    let counts = |pattern| table_counts(&BatchEll::zeros(1, Arc::new(pattern)).unwrap());
    // The XGC grid: interior stretches run ~31 rows, and the rows at the
    // ends of each grid line fall out of them.
    assert_eq!(
        counts(SparsityPattern::stencil_2d(32, 31, true)),
        (273, 302)
    );
    let scattered = scattered();
    assert_eq!(counts(scattered.clone()), (0, scattered.nnz()));
}

#[test]
fn run_kernel_matches_row_major_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x2a11);
    for (name, pattern) in patterns() {
        let pattern = Arc::new(pattern);
        let (n, nnz) = (pattern.num_rows(), pattern.nnz());
        let mut csr = BatchCsr::<f64>::zeros(3, Arc::clone(&pattern)).unwrap();
        for vals in csr.systems_mut() {
            vals.copy_from_slice(&awkward(&mut rng, nnz, 30));
        }
        let col = BatchEll::from_csr_in(&csr, ValueLayout::ColMajor).unwrap();
        let row = BatchEll::from_csr_in(&csr, ValueLayout::RowMajor).unwrap();
        let (runs, w) = (col.stencil_runs(), row.width());
        for trial in 0..4 {
            let x = awkward(&mut rng, n, 30);
            for i in 0..3 {
                let (cc, cv) = (col.col_idxs(), col.values_of(i));
                let (rc, rv) = (row.col_idxs(), row.values_of(i));
                // `y` starts dirty: the kernels must overwrite every row.
                let mut reference = vec![f64::NAN; n];
                ell::spmv_row_major::portable(w, rc, rv, &x, &mut reference);
                let mut copies = vec![("portable", vec![0.5; n])];
                ell::spmv_col_major::portable(runs, cc, cv, &x, &mut copies[0].1);
                if batsolv_types::fma::detected() {
                    let mut y = vec![-0.0; n];
                    ell::spmv_col_major::hardware(runs, cc, cv, &x, &mut y);
                    copies.push(("hardware", y));
                }
                let mut dispatched = vec![1.0; n];
                col.spmv_system(i, &x, &mut dispatched);
                copies.push(("dispatched", dispatched));
                for (copy, y) in copies {
                    for (r, (a, b)) in y.iter().zip(&reference).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{name} {copy} system {i} trial {trial} row {r}: {a:?} vs {b:?}"
                        );
                    }
                }
            }
        }
    }
}
