//! `BatchDia`: diagonal (DIA) storage.
//!
//! The third classic sparse format for stencil matrices (alongside CSR
//! and ELL): values are stored along matrix diagonals, with one shared
//! offset list for the whole batch. For the XGC nine-point stencil the
//! offsets are `{-nx-1, -nx, -nx+1, -1, 0, 1, nx-1, nx, nx+1}` — nine
//! dense diagonals. DIA gives perfectly regular, branch-light SpMV
//! (no column indices to load at all), at the price of padding near the
//! matrix edges and inflexibility for irregular patterns. It completes
//! the format-exploration story of the paper's Section IV.A.
//!
//! Like [`BatchEll`](crate::BatchEll), the per-system value slab is
//! stored in a caller-selected [`ValueLayout`]: the default column-major
//! order keeps each diagonal contiguous (entry `(row, d)` at
//! `d * num_rows + row` — coalesced thread-per-row access and unit-stride
//! host loops), while row-major keeps each row's diagonal entries
//! contiguous (`row * num_diagonals + d`), the strided baseline.

use std::sync::Arc;

use batsolv_types::{fma_kernel, BatchDims, Error, OpCounts, Result, Scalar};

use crate::csr::BatchCsr;
use crate::layout::ValueLayout;
use crate::pattern::SparsityPattern;
use crate::traits::BatchMatrix;

/// A batch of DIA matrices sharing one diagonal-offset list.
#[derive(Clone, Debug)]
pub struct BatchDia<T> {
    dims: BatchDims,
    /// Originating pattern (kept for conversions and `entry`).
    pattern: Arc<SparsityPattern>,
    /// Shared diagonal offsets, ascending (`0` = main diagonal).
    offsets: Vec<i32>,
    /// Memory order of each per-system value slab.
    layout: ValueLayout,
    /// Values, system-major; within a system a `num_diagonals * n` slab
    /// in `layout` order. Slots outside the matrix are zero padding.
    values: Vec<T>,
}

impl<T: Scalar> BatchDia<T> {
    /// A zero-valued column-major DIA batch over `pattern`.
    ///
    /// Fails if the pattern needs more than `max_diagonals` distinct
    /// offsets (DIA degenerates for irregular patterns; the stencil
    /// needs exactly 9).
    pub fn zeros(
        num_systems: usize,
        pattern: Arc<SparsityPattern>,
        max_diagonals: usize,
    ) -> Result<Self> {
        Self::zeros_in(num_systems, pattern, max_diagonals, ValueLayout::ColMajor)
    }

    /// A zero-valued DIA batch over `pattern` with an explicit layout.
    pub fn zeros_in(
        num_systems: usize,
        pattern: Arc<SparsityPattern>,
        max_diagonals: usize,
        layout: ValueLayout,
    ) -> Result<Self> {
        let n = pattern.num_rows();
        let dims = BatchDims::new(num_systems, n)?;
        let mut offsets: Vec<i32> = Vec::new();
        for r in 0..n {
            for &c in pattern.row_cols(r) {
                let off = c as i64 - r as i64;
                let off = i32::try_from(off)
                    .map_err(|_| Error::InvalidFormat("diagonal offset exceeds i32".into()))?;
                if let Err(pos) = offsets.binary_search(&off) {
                    offsets.insert(pos, off);
                }
            }
        }
        if offsets.len() > max_diagonals {
            return Err(Error::InvalidFormat(format!(
                "pattern needs {} diagonals, cap is {max_diagonals} — DIA unsuitable",
                offsets.len()
            )));
        }
        let values = vec![T::ZERO; num_systems * offsets.len() * n];
        Ok(BatchDia {
            dims,
            pattern,
            offsets,
            layout,
            values,
        })
    }

    /// Convert a CSR batch (same pattern constraints as [`Self::zeros`]).
    pub fn from_csr(csr: &BatchCsr<T>, max_diagonals: usize) -> Result<Self> {
        Self::from_csr_in(csr, max_diagonals, ValueLayout::ColMajor)
    }

    /// Convert a CSR batch with an explicit value layout.
    pub fn from_csr_in(
        csr: &BatchCsr<T>,
        max_diagonals: usize,
        layout: ValueLayout,
    ) -> Result<Self> {
        let mut dia = Self::zeros_in(
            csr.dims().num_systems,
            Arc::clone(csr.pattern()),
            max_diagonals,
            layout,
        )?;
        let n = dia.dims.num_rows;
        for i in 0..csr.dims().num_systems {
            let src = csr.values_of(i);
            let ndiag = dia.offsets.len();
            let offsets = dia.offsets.clone();
            let slab = dia.values_of_mut(i);
            for r in 0..n {
                let (b, e) = csr.pattern().row_range(r);
                for k in b..e {
                    let c = csr.pattern().col_idxs()[k] as usize;
                    let off = c as i64 - r as i64;
                    let d = offsets
                        .binary_search(&(off as i32))
                        .expect("offset present by construction");
                    debug_assert!(d < ndiag);
                    slab[layout.index(n, ndiag, r, d)] = src[k];
                }
            }
        }
        Ok(dia)
    }

    /// Convert back to CSR (only entries of the originating pattern are
    /// copied; edge-padding slots are dropped).
    pub fn to_csr(&self) -> BatchCsr<T> {
        let mut csr = BatchCsr::zeros(self.dims.num_systems, Arc::clone(&self.pattern))
            .expect("dims already validated");
        for i in 0..self.dims.num_systems {
            csr.fill_system(i, |r, c| self.entry(i, r, c));
        }
        csr
    }

    /// The shared diagonal offsets.
    pub fn offsets(&self) -> &[i32] {
        &self.offsets
    }

    /// Number of stored diagonals.
    pub fn num_diagonals(&self) -> usize {
        self.offsets.len()
    }

    /// Memory order of the value slabs.
    #[inline]
    pub fn layout(&self) -> ValueLayout {
        self.layout
    }

    /// Value slab of system `i` (`num_diagonals * n`, in
    /// [`Self::layout`] order).
    pub fn values_of(&self, i: usize) -> &[T] {
        let slab = self.offsets.len() * self.dims.num_rows;
        &self.values[i * slab..(i + 1) * slab]
    }

    /// Mutable value slab of system `i`.
    pub fn values_of_mut(&mut self, i: usize) -> &mut [T] {
        let slab = self.offsets.len() * self.dims.num_rows;
        &mut self.values[i * slab..(i + 1) * slab]
    }

    /// Fraction of stored slots that are edge padding.
    pub fn padding_fraction(&self) -> f64 {
        let slots = self.offsets.len() * self.dims.num_rows;
        (slots - self.pattern.nnz()) as f64 / slots as f64
    }
}

fma_kernel! {
    /// Column-major `y = A·x` for one system: one unit-stride pass per
    /// diagonal, where y, the value slab, and x all advance with stride
    /// one — the branch-light loop LLVM autovectorizes.
    fn spmv_col_major<T: Scalar>(offsets: &[i32], slab: &[T], x: &[T], y: &mut [T]) {
        let n = y.len();
        y.iter_mut().for_each(|v| *v = T::ZERO);
        for (d, &off) in offsets.iter().enumerate() {
            let vals = &slab[d * n..(d + 1) * n];
            // Row range for which r + off is a valid column.
            let (r_lo, r_hi) = if off >= 0 {
                (0usize, n - off as usize)
            } else {
                ((-off) as usize, n)
            };
            let c_lo = (r_lo as i64 + off as i64) as usize;
            let span = r_hi - r_lo;
            for ((yr, &v), &xc) in y[r_lo..r_hi]
                .iter_mut()
                .zip(&vals[r_lo..r_hi])
                .zip(&x[c_lo..c_lo + span])
            {
                *yr = v.mul_add(xc, *yr);
            }
        }
    }
}

fma_kernel! {
    /// Row-major `y = A·x` for one system, row at a time over the
    /// contiguous per-row diagonal entries; ascending-d accumulation
    /// keeps results bitwise identical to the column-major kernel.
    fn spmv_row_major<T: Scalar>(offsets: &[i32], slab: &[T], x: &[T], y: &mut [T]) {
        let n = y.len();
        for (r, (yr, vals)) in y.iter_mut().zip(slab.chunks_exact(offsets.len())).enumerate() {
            let mut acc = T::ZERO;
            for (&off, &v) in offsets.iter().zip(vals) {
                let c = r as i64 + off as i64;
                if c >= 0 && (c as usize) < n {
                    acc = v.mul_add(x[c as usize], acc);
                }
            }
            *yr = acc;
        }
    }
}

impl<T: Scalar> BatchMatrix<T> for BatchDia<T> {
    fn dims(&self) -> BatchDims {
        self.dims
    }

    fn format_name(&self) -> &'static str {
        match self.layout {
            ValueLayout::ColMajor => "BatchDia",
            ValueLayout::RowMajor => "BatchDia(row-major)",
        }
    }

    fn stored_per_system(&self) -> usize {
        self.offsets.len() * self.dims.num_rows
    }

    fn spmv_system(&self, i: usize, x: &[T], y: &mut [T]) {
        let slab = self.values_of(i);
        match self.layout {
            ValueLayout::ColMajor => spmv_col_major(&self.offsets, slab, x, y),
            ValueLayout::RowMajor => spmv_row_major(&self.offsets, slab, x, y),
        }
    }

    fn extract_diagonal(&self, i: usize, diag: &mut [T]) {
        let n = self.dims.num_rows;
        let ndiag = self.offsets.len();
        match self.offsets.binary_search(&0) {
            Ok(d) => match self.layout {
                ValueLayout::ColMajor => {
                    diag.copy_from_slice(&self.values_of(i)[d * n..(d + 1) * n])
                }
                ValueLayout::RowMajor => {
                    let slab = self.values_of(i);
                    for (r, dv) in diag.iter_mut().enumerate() {
                        *dv = slab[r * ndiag + d];
                    }
                }
            },
            Err(_) => diag.iter_mut().for_each(|v| *v = T::ZERO),
        }
    }

    fn entry(&self, i: usize, row: usize, col: usize) -> T {
        let off = col as i64 - row as i64;
        match i32::try_from(off)
            .ok()
            .and_then(|o| self.offsets.binary_search(&o).ok())
        {
            Some(d) => {
                let idx = self
                    .layout
                    .index(self.dims.num_rows, self.offsets.len(), row, d);
                self.values_of(i)[idx]
            }
            None => T::ZERO,
        }
    }

    fn spmv_x_read_bytes(&self) -> u64 {
        (self.pattern.nnz() * T::BYTES) as u64
    }

    fn spmv_counts(&self, warp_size: u32) -> OpCounts {
        let mut c = OpCounts::ZERO;
        let n = self.dims.num_rows as u64;
        let w = warp_size as u64;
        let warps = n.div_ceil(w);
        // Thread-per-row, one pass per diagonal — like ELL, but with no
        // index loads at all and unit-stride x accesses per diagonal.
        for &off in self.offsets.iter() {
            let active = n - off.unsigned_abs() as u64;
            c.lane_total += warps * w;
            c.lane_active += active;
            c.flops += 2 * active;
        }
        let vb = T::BYTES as u64;
        let slots = self.offsets.len() as u64 * n;
        // Row-major slabs pay the strided-access amplification.
        let amp = self.layout.traffic_amplification(self.offsets.len());
        c.global_read_bytes += slots * vb * amp; // values incl. padding
        c.global_read_bytes += self.offsets.len() as u64 * 4; // offsets only!
        c.global_read_bytes += (self.pattern.nnz() as u64) * vb; // x
        c.global_write_bytes += n * vb;
        c
    }

    fn value_bytes_per_system(&self) -> usize {
        self.offsets.len() * self.dims.num_rows * T::BYTES
    }

    fn shared_index_bytes(&self) -> usize {
        self.offsets.len() * core::mem::size_of::<i32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::BatchVectors;

    fn stencil_csr(nx: usize, ny: usize) -> BatchCsr<f64> {
        let p = Arc::new(SparsityPattern::stencil_2d(nx, ny, true));
        let mut m = BatchCsr::zeros(2, p).unwrap();
        for i in 0..2 {
            m.fill_system(i, |r, c| {
                if r == c {
                    7.0 + i as f64
                } else {
                    -0.5 - 0.11 * ((r * 3 + c * 5) % 7) as f64
                }
            });
        }
        m
    }

    #[test]
    fn stencil_has_nine_diagonals() {
        let csr = stencil_csr(6, 5);
        let dia = BatchDia::from_csr(&csr, 16).unwrap();
        assert_eq!(dia.num_diagonals(), 9);
        assert_eq!(
            dia.offsets(),
            &[-7, -6, -5, -1, 0, 1, 5, 6, 7] // nx = 6 → ±(nx-1), ±nx, ±(nx+1)
        );
    }

    #[test]
    fn dia_spmv_matches_csr() {
        let csr = stencil_csr(6, 5);
        let dia = BatchDia::from_csr(&csr, 16).unwrap();
        let x = BatchVectors::from_fn(csr.dims(), |s, r| ((s + 1) * (r + 2)) as f64 * 0.05);
        let mut y1 = BatchVectors::zeros(csr.dims());
        let mut y2 = BatchVectors::zeros(csr.dims());
        csr.spmv(&x, &mut y1).unwrap();
        dia.spmv(&x, &mut y2).unwrap();
        for (a, b) in y1.values().iter().zip(y2.values()) {
            assert!((a - b).abs() < 1e-13);
        }
    }

    #[test]
    fn layouts_produce_bitwise_identical_spmv() {
        let csr = stencil_csr(6, 5);
        let col = BatchDia::from_csr_in(&csr, 16, ValueLayout::ColMajor).unwrap();
        let row = BatchDia::from_csr_in(&csr, 16, ValueLayout::RowMajor).unwrap();
        assert_eq!(col.format_name(), "BatchDia");
        assert_eq!(row.format_name(), "BatchDia(row-major)");
        let x = BatchVectors::from_fn(csr.dims(), |s, r| ((s * 7 + r) as f64 * 0.21).cos());
        let mut y_col = BatchVectors::zeros(csr.dims());
        let mut y_row = BatchVectors::zeros(csr.dims());
        col.spmv(&x, &mut y_col).unwrap();
        row.spmv(&x, &mut y_row).unwrap();
        assert_eq!(y_col.values(), y_row.values());
    }

    #[test]
    fn roundtrip_csr_dia_csr_both_layouts() {
        let csr = stencil_csr(5, 4);
        for layout in [ValueLayout::ColMajor, ValueLayout::RowMajor] {
            let back = BatchDia::from_csr_in(&csr, 16, layout).unwrap().to_csr();
            for i in 0..2 {
                assert_eq!(csr.values_of(i), back.values_of(i), "{layout:?}");
            }
        }
    }

    #[test]
    fn entries_and_diagonal_agree_with_csr() {
        let csr = stencil_csr(5, 4);
        let n = 20;
        for layout in [ValueLayout::ColMajor, ValueLayout::RowMajor] {
            let dia = BatchDia::from_csr_in(&csr, 16, layout).unwrap();
            for i in 0..2 {
                for r in 0..n {
                    for c in 0..n {
                        assert_eq!(
                            dia.entry(i, r, c),
                            csr.get(i, r, c),
                            "({i},{r},{c}) {layout:?}"
                        );
                    }
                }
                let mut d1 = vec![0.0; n];
                let mut d2 = vec![0.0; n];
                dia.extract_diagonal(i, &mut d1);
                csr.extract_diagonal(i, &mut d2);
                assert_eq!(d1, d2);
            }
        }
    }

    #[test]
    fn irregular_pattern_is_rejected() {
        // A pattern with an entry on many distinct diagonals.
        let coords: Vec<(usize, usize)> = (0..12).map(|r| (r, (r * r) % 12)).collect();
        let p = Arc::new(SparsityPattern::from_coords(12, &coords).unwrap());
        assert!(BatchDia::<f64>::zeros(1, p, 4).is_err());
    }

    #[test]
    fn no_index_loads_in_traffic() {
        // DIA's defining property: the shared structure is just the
        // offsets (36 bytes for the stencil), vs kilobytes for CSR/ELL.
        let csr = stencil_csr(32, 31);
        let dia = BatchDia::from_csr(&csr, 16).unwrap();
        assert_eq!(dia.shared_index_bytes(), 9 * 4);
        assert!(csr.shared_index_bytes() > 1000 * dia.shared_index_bytes());
    }

    #[test]
    fn dia_lane_utilization_is_high() {
        let csr = stencil_csr(32, 31);
        let dia = BatchDia::from_csr(&csr, 16).unwrap();
        let u = dia.spmv_counts(32).lane_utilization();
        assert!(u > 0.85, "utilization {u}");
    }

    #[test]
    fn row_major_pays_coalescing_penalty_in_the_model() {
        let csr = stencil_csr(32, 31);
        let col = BatchDia::from_csr_in(&csr, 16, ValueLayout::ColMajor).unwrap();
        let row = BatchDia::from_csr_in(&csr, 16, ValueLayout::RowMajor).unwrap();
        assert!(row.spmv_counts(32).global_read_bytes > 5 * col.spmv_counts(32).global_read_bytes);
    }

    #[test]
    fn padding_grows_with_bandwidth() {
        // Wider grids → longer wing diagonals → less padding fraction.
        let small = BatchDia::from_csr(&stencil_csr(4, 4), 16).unwrap();
        let large = BatchDia::from_csr(&stencil_csr(16, 16), 16).unwrap();
        assert!(large.padding_fraction() < small.padding_fraction());
        assert!(small.padding_fraction() < 0.5);
    }
}
