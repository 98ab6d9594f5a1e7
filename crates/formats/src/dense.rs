//! `BatchDense`: dense row-major storage.
//!
//! Used as the reference format in tests, as the target of conversions, by
//! the eigenvalue solver, and to quantify Figure 3's storage comparison
//! (dense needs `num_matrices × n²` values; the sparse formats need
//! `num_matrices × nnz` plus one shared index structure).

use batsolv_types::{fma_kernel, BatchDims, OpCounts, Scalar};

use crate::csr::BatchCsr;
use crate::traits::BatchMatrix;

/// A batch of dense square matrices, each stored row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchDense<T> {
    dims: BatchDims,
    /// System-major; within a system, row-major `n × n`.
    values: Vec<T>,
}

impl<T: Scalar> BatchDense<T> {
    /// All-zero batch.
    pub fn zeros(dims: BatchDims) -> Self {
        BatchDense {
            dims,
            values: vec![T::ZERO; dims.num_systems * dims.num_rows * dims.num_rows],
        }
    }

    /// Batch of identity matrices.
    pub fn identity(dims: BatchDims) -> Self {
        let mut m = Self::zeros(dims);
        for i in 0..dims.num_systems {
            for r in 0..dims.num_rows {
                *m.at_mut(i, r, r) = T::ONE;
            }
        }
        m
    }

    /// Build from an entry function of `(system, row, col)`.
    pub fn from_fn(dims: BatchDims, mut f: impl FnMut(usize, usize, usize) -> T) -> Self {
        let n = dims.num_rows;
        let mut values = Vec::with_capacity(dims.num_systems * n * n);
        for s in 0..dims.num_systems {
            for r in 0..n {
                for c in 0..n {
                    values.push(f(s, r, c));
                }
            }
        }
        BatchDense { dims, values }
    }

    /// Densify a CSR batch.
    pub fn from_csr(csr: &BatchCsr<T>) -> Self {
        let dims = csr.dims();
        let mut m = Self::zeros(dims);
        for i in 0..dims.num_systems {
            let vals = csr.values_of(i);
            for r in 0..dims.num_rows {
                let (b, e) = csr.pattern().row_range(r);
                for k in b..e {
                    *m.at_mut(i, r, csr.pattern().col_idxs()[k] as usize) = vals[k];
                }
            }
        }
        m
    }

    /// Entry `(row, col)` of system `i`.
    #[inline]
    pub fn at(&self, i: usize, row: usize, col: usize) -> T {
        let n = self.dims.num_rows;
        self.values[(i * n + row) * n + col]
    }

    /// Mutable entry `(row, col)` of system `i`.
    #[inline]
    pub fn at_mut(&mut self, i: usize, row: usize, col: usize) -> &mut T {
        let n = self.dims.num_rows;
        &mut self.values[(i * n + row) * n + col]
    }

    /// Row-major matrix slab of system `i` (`n * n` values).
    #[inline]
    pub fn matrix_of(&self, i: usize) -> &[T] {
        let nn = self.dims.num_rows * self.dims.num_rows;
        &self.values[i * nn..(i + 1) * nn]
    }

    /// Mutable slab of system `i`.
    #[inline]
    pub fn matrix_of_mut(&mut self, i: usize) -> &mut [T] {
        let nn = self.dims.num_rows * self.dims.num_rows;
        &mut self.values[i * nn..(i + 1) * nn]
    }
}

fma_kernel! {
    /// `y = A·x` for one row-major `n × n` matrix `a`.
    fn spmv<T: Scalar>(a: &[T], x: &[T], y: &mut [T]) {
        let n = y.len();
        for r in 0..n {
            let row = &a[r * n..(r + 1) * n];
            let mut acc = T::ZERO;
            for c in 0..n {
                acc = row[c].mul_add(x[c], acc);
            }
            y[r] = acc;
        }
    }
}

impl<T: Scalar> BatchMatrix<T> for BatchDense<T> {
    fn dims(&self) -> BatchDims {
        self.dims
    }

    fn format_name(&self) -> &'static str {
        "BatchDense"
    }

    fn stored_per_system(&self) -> usize {
        self.dims.num_rows * self.dims.num_rows
    }

    fn spmv_system(&self, i: usize, x: &[T], y: &mut [T]) {
        spmv(self.matrix_of(i), x, y);
    }

    fn extract_diagonal(&self, i: usize, diag: &mut [T]) {
        for r in 0..self.dims.num_rows {
            diag[r] = self.at(i, r, r);
        }
    }

    fn entry(&self, i: usize, row: usize, col: usize) -> T {
        self.at(i, row, col)
    }

    fn spmv_x_read_bytes(&self) -> u64 {
        (self.dims.num_rows * T::BYTES) as u64
    }

    fn spmv_counts(&self, warp_size: u32) -> OpCounts {
        let n = self.dims.num_rows as u64;
        let vb = T::BYTES as u64;
        let mut c = OpCounts::ZERO;
        c.flops = 2 * n * n;
        c.global_read_bytes = n * n * vb + n * vb;
        c.global_write_bytes = n * vb;
        // Row-parallel GEMV keeps all lanes busy.
        c.record_lanes(n, warp_size as u64, n);
        c
    }

    fn value_bytes_per_system(&self) -> usize {
        self.dims.num_rows * self.dims.num_rows * T::BYTES
    }

    fn shared_index_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::SparsityPattern;
    use std::sync::Arc;

    fn dims(ns: usize, n: usize) -> BatchDims {
        BatchDims::new(ns, n).unwrap()
    }

    #[test]
    fn identity_spmv_is_identity() {
        let m = BatchDense::<f64>::identity(dims(2, 4));
        let x = [1.0, -2.0, 3.0, 0.5];
        let mut y = [0.0; 4];
        m.spmv_system(1, &x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn from_fn_and_at() {
        let m = BatchDense::<f64>::from_fn(dims(2, 3), |s, r, c| (100 * s + 10 * r + c) as f64);
        assert_eq!(m.at(1, 2, 0), 120.0);
        assert_eq!(m.at(0, 0, 2), 2.0);
    }

    #[test]
    fn from_csr_densifies() {
        let p = Arc::new(SparsityPattern::from_coords(2, &[(0, 0), (1, 0), (1, 1)]).unwrap());
        let mut csr = BatchCsr::<f64>::zeros(1, p).unwrap();
        csr.set(0, 0, 0, 1.0).unwrap();
        csr.set(0, 1, 0, 2.0).unwrap();
        csr.set(0, 1, 1, 3.0).unwrap();
        let d = BatchDense::from_csr(&csr);
        assert_eq!(d.at(0, 0, 0), 1.0);
        assert_eq!(d.at(0, 0, 1), 0.0);
        assert_eq!(d.at(0, 1, 0), 2.0);
        assert_eq!(d.at(0, 1, 1), 3.0);
    }

    #[test]
    fn dense_spmv_matches_csr() {
        let p = Arc::new(SparsityPattern::stencil_2d(4, 4, true));
        let mut csr = BatchCsr::<f64>::zeros(1, p).unwrap();
        csr.fill_system(0, |r, c| {
            if r == c {
                5.0
            } else {
                -1.0 / (1.0 + (r + c) as f64)
            }
        });
        let dense = BatchDense::from_csr(&csr);
        let x: Vec<f64> = (0..16).map(|k| (k as f64).sin()).collect();
        let mut y1 = vec![0.0; 16];
        let mut y2 = vec![0.0; 16];
        csr.spmv_system(0, &x, &mut y1);
        dense.spmv_system(0, &x, &mut y2);
        for r in 0..16 {
            assert!((y1[r] - y2[r]).abs() < 1e-13);
        }
    }

    #[test]
    fn dense_gemv_full_lanes() {
        let m = BatchDense::<f64>::identity(dims(1, 64));
        let c = m.spmv_counts(32);
        assert_eq!(c.lane_utilization(), 1.0);
        assert_eq!(c.flops, 2 * 64 * 64);
    }

    #[test]
    fn storage_is_quadratic() {
        let m = BatchDense::<f64>::zeros(dims(3, 10));
        assert_eq!(m.value_bytes_per_system(), 100 * 8);
        assert_eq!(m.shared_index_bytes(), 0);
    }
}
