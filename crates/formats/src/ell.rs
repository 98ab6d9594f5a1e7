//! `BatchEll`: ELLPACK storage with shared column indices.
//!
//! Rows are padded to a uniform width (9 for the XGC stencil, with padding
//! only at grid-boundary rows), removing the row-pointer array. The column
//! indices and each system's values are stored in a caller-selected
//! [`ValueLayout`]: **column-major** (entry `(row, k)` at
//! `k * num_rows + row`, the default) places consecutive rows' entries at
//! consecutive addresses so that consecutive GPU threads — one thread per
//! row — issue coalesced loads: the layout of the paper's Figure 5(b).
//! The row-major order is kept as the measured baseline.
//!
//! A column-major batch also carries its [`StencilRuns`]: within each slot
//! the rows whose column minus row is constant form unit-stride runs, which
//! the SpMV walks like DIA diagonals, gathering `x` only for the rest.

use std::sync::Arc;

use batsolv_types::{fma_kernel, BatchDims, Error, OpCounts, Result, Scalar};

use crate::csr::BatchCsr;
use crate::layout::ValueLayout;
use crate::pattern::SparsityPattern;
use crate::traits::BatchMatrix;

/// Sentinel column index marking a padding slot.
pub const ELL_PAD: u32 = u32::MAX;

/// A batch of ELL matrices sharing one [`EllIndex`].
#[derive(Clone, Debug)]
pub struct BatchEll<T> {
    dims: BatchDims,
    /// The pattern-only part, shared by every batch built on it.
    index: Arc<EllIndex>,
    /// Values, system-major outer; within a system a `width * num_rows`
    /// slab in the index's layout order (including padding zeros).
    values: Vec<T>,
}

/// The pattern-only part of an ELL batch: the shared column indices and
/// the column-major SpMV's [`StencilRuns`]. It depends on nothing but the
/// pattern and the layout, so one index, built once and shared behind an
/// `Arc`, serves every batch over them ([`BatchEll::zeros_on`]).
#[derive(Debug)]
pub struct EllIndex {
    /// The originating CSR pattern (kept for conversions and diagonal
    /// lookup; the index array below is derived from it).
    pattern: Arc<SparsityPattern>,
    /// Uniform row width (`max_nnz_per_row` of the pattern).
    width: usize,
    /// Memory order of `col_idxs` and each per-system value slab.
    layout: ValueLayout,
    /// Shared column indices, in `layout` order, `width * num_rows`
    /// entries, padding slots hold [`ELL_PAD`].
    col_idxs: Vec<u32>,
    /// The column-major SpMV's walk of `col_idxs`; empty for row-major.
    runs: StencilRuns,
}

impl EllIndex {
    /// The index of `pattern` in `layout`.
    pub fn new(pattern: Arc<SparsityPattern>, layout: ValueLayout) -> EllIndex {
        let n = pattern.num_rows();
        let width = pattern.max_nnz_per_row();
        let mut col_idxs = vec![ELL_PAD; width * n];
        for r in 0..n {
            for (k, &c) in pattern.row_cols(r).iter().enumerate() {
                col_idxs[layout.index(n, width, r, k)] = c;
            }
        }
        let runs = match layout {
            // An entry-less pattern has no slot to walk; `zeros_on`
            // refuses it.
            ValueLayout::ColMajor if width > 0 => StencilRuns::new(width, n, &col_idxs),
            _ => StencilRuns::default(),
        };
        EllIndex {
            pattern,
            width,
            layout,
            col_idxs,
            runs,
        }
    }

    /// The originating sparsity pattern.
    #[inline]
    pub fn pattern(&self) -> &Arc<SparsityPattern> {
        &self.pattern
    }

    /// Values per system slab (`width * num_rows`, padding included).
    #[inline]
    fn slab_len(&self) -> usize {
        self.width * self.pattern.num_rows()
    }

    /// Slab slot of every stored entry, in CSR order: row `r`'s `k`-th
    /// entry sits in slot `k` of the row.
    fn csr_slots(&self) -> impl Iterator<Item = usize> + '_ {
        let n = self.pattern.num_rows();
        (0..n).flat_map(move |r| {
            (0..self.pattern.nnz_in_row(r)).map(move |k| self.layout.index(n, self.width, r, k))
        })
    }
}

/// Shortest stretch of a slot walked as a unit-stride run; shorter ones are
/// gathered. A shorter run would not fill one 4-lane vector of `f64`.
pub(crate) const MIN_RUN: usize = 4;

/// The walk of a column-major index array, slot by slot: the maximal
/// stretches of rows whose column minus row is constant (unit-stride runs)
/// and the stored rows left over (gathered). Every stored `(row, slot)`
/// lies in exactly one of them; padding slots lie in neither.
#[derive(Clone, Debug, Default)]
pub(crate) struct StencilRuns {
    /// Slots covered (the ELL width; 0 when empty).
    width: usize,
    /// One allocation: `2 * width + 1` bounds `b`, then per slot `k` its
    /// runs as `(first row, first column, length)` triples in
    /// `table[b[2k]..b[2k + 1]]`, followed by its gathered rows in
    /// `table[b[2k + 1]..b[2k + 2]]`.
    table: Vec<u32>,
}

impl StencilRuns {
    /// The runs and gathered rows of a column-major `width × n` index
    /// array.
    fn new(width: usize, n: usize, col_idxs: &[u32]) -> Self {
        let slots = || col_idxs.chunks_exact(n);
        // Sized up front: growing the table by reallocation left holes in
        // the heap that raised the Picard benchmark's peak RSS by ~2 MB.
        let entries: usize = slots()
            .flat_map(stretches)
            .map(|(_, len)| if len >= MIN_RUN { 3 } else { len })
            .sum();
        let mut table = Vec::with_capacity(2 * width + 1 + entries);
        table.resize(2 * width + 1, 0);
        let mark = |table: &Vec<u32>| u32::try_from(table.len()).expect("table fits u32 offsets");
        for (k, cols) in slots().enumerate() {
            table[2 * k] = mark(&table);
            for (r, len) in stretches(cols).filter(|&(_, len)| len >= MIN_RUN) {
                table.extend([r as u32, cols[r], len as u32]);
            }
            table[2 * k + 1] = mark(&table);
            for (r, len) in stretches(cols).filter(|&(_, len)| len < MIN_RUN) {
                table.extend(r as u32..(r + len) as u32);
            }
        }
        table[2 * width] = mark(&table);
        debug_assert_eq!(table.len(), 2 * width + 1 + entries);
        StencilRuns { width, table }
    }

    /// Slot `k`'s unit-stride runs as `(first row, first column, length)`.
    #[inline]
    pub(crate) fn runs(&self, k: usize) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (lo, hi) = (self.table[2 * k] as usize, self.table[2 * k + 1] as usize);
        self.table[lo..hi]
            .chunks_exact(3)
            .map(|run| (run[0] as usize, run[1] as usize, run[2] as usize))
    }

    /// Slot `k`'s gathered rows, ascending.
    #[inline]
    pub(crate) fn gathered(&self, k: usize) -> &[u32] {
        &self.table[self.table[2 * k + 1] as usize..self.table[2 * k + 2] as usize]
    }
}

/// The maximal stretches `(first row, length)` of one column-major slot's
/// stored rows over which the column rises with the row; padding rows
/// belong to none.
fn stretches(cols: &[u32]) -> impl Iterator<Item = (usize, usize)> + '_ {
    let mut r = 0;
    std::iter::from_fn(move || {
        while cols.get(r) == Some(&ELL_PAD) {
            r += 1;
        }
        let first = r;
        cols.get(first)?;
        r += 1;
        // A stored column is below `ELL_PAD`, so `+ 1` cannot overflow.
        while r < cols.len() && cols[r] != ELL_PAD && cols[r] == cols[r - 1] + 1 {
            r += 1;
        }
        Some((first, r - first))
    })
}

impl<T: Scalar> BatchEll<T> {
    /// A zero-valued ELL batch over `pattern` in the paper's
    /// column-major layout.
    pub fn zeros(num_systems: usize, pattern: Arc<SparsityPattern>) -> Result<Self> {
        Self::zeros_in(num_systems, pattern, ValueLayout::ColMajor)
    }

    /// A zero-valued ELL batch over `pattern` with an explicit layout.
    pub fn zeros_in(
        num_systems: usize,
        pattern: Arc<SparsityPattern>,
        layout: ValueLayout,
    ) -> Result<Self> {
        Self::zeros_on(num_systems, Arc::new(EllIndex::new(pattern, layout)))
    }

    /// A zero-valued ELL batch on a shared `index`: only the value slabs
    /// are allocated.
    pub fn zeros_on(num_systems: usize, index: Arc<EllIndex>) -> Result<Self> {
        let dims = BatchDims::new(num_systems, index.pattern.num_rows())?;
        if index.width == 0 {
            return Err(Error::InvalidFormat("empty pattern for BatchEll".into()));
        }
        let values = vec![T::ZERO; num_systems * index.slab_len()];
        Ok(BatchEll {
            dims,
            index,
            values,
        })
    }

    /// Convert a CSR batch to column-major ELL (the paper's layout).
    pub fn from_csr(csr: &BatchCsr<T>) -> Result<Self> {
        Self::from_csr_in(csr, ValueLayout::ColMajor)
    }

    /// Convert a CSR batch to ELL with an explicit value layout.
    pub fn from_csr_in(csr: &BatchCsr<T>, layout: ValueLayout) -> Result<Self> {
        let mut ell = Self::zeros_in(csr.dims().num_systems, Arc::clone(csr.pattern()), layout)?;
        for i in 0..csr.dims().num_systems {
            ell.copy_csr_values(i, csr.values_of(i))?;
        }
        Ok(ell)
    }

    /// Copy system `i`'s values, given in CSR order over the pattern
    /// (`nnz` entries), into its slab. Padding slots are left as they
    /// are.
    pub fn copy_csr_values(&mut self, i: usize, csr_values: &[T]) -> Result<()> {
        let nnz = self.pattern().nnz();
        if csr_values.len() != nnz {
            return Err(batsolv_types::dim_mismatch!(
                "system {i} has {} values, pattern has {nnz} nnz",
                csr_values.len()
            ));
        }
        let slab = self.index.slab_len();
        let dst = &mut self.values[i * slab..(i + 1) * slab];
        for (slot, &v) in self.index.csr_slots().zip(csr_values) {
            dst[slot] = v;
        }
        Ok(())
    }

    /// Re-order the batch into another layout (values are copied; the
    /// numeric content is unchanged).
    pub fn to_layout(&self, layout: ValueLayout) -> Self {
        if layout == self.layout() {
            return self.clone();
        }
        let n = self.dims.num_rows;
        let width = self.width();
        let mut out = Self::zeros_in(self.dims.num_systems, Arc::clone(self.pattern()), layout)
            .expect("dims already validated");
        for i in 0..self.dims.num_systems {
            let src = self.values_of(i);
            let dst = out.values_of_mut(i);
            for r in 0..n {
                for k in 0..width {
                    dst[layout.index(n, width, r, k)] = src[self.layout().index(n, width, r, k)];
                }
            }
        }
        out
    }

    /// Convert back to CSR.
    pub fn to_csr(&self) -> BatchCsr<T> {
        let mut csr = BatchCsr::zeros(self.dims.num_systems, Arc::clone(self.pattern()))
            .expect("dims already validated");
        for i in 0..self.dims.num_systems {
            let slab = self.values_of(i);
            let dst = csr.values_of_mut(i);
            for (v, slot) in dst.iter_mut().zip(self.index.csr_slots()) {
                *v = slab[slot];
            }
        }
        csr
    }

    /// Uniform row width (entries per row including padding).
    #[inline]
    pub fn width(&self) -> usize {
        self.index.width
    }

    /// Memory order of the value slabs and index array.
    #[inline]
    pub fn layout(&self) -> ValueLayout {
        self.index.layout
    }

    /// The originating sparsity pattern.
    #[inline]
    pub fn pattern(&self) -> &Arc<SparsityPattern> {
        &self.index.pattern
    }

    /// Shared column-index array (in [`Self::layout`] order, padding =
    /// [`ELL_PAD`]).
    #[inline]
    pub fn col_idxs(&self) -> &[u32] {
        &self.index.col_idxs
    }

    /// The column-major SpMV's runs and gathered rows (empty for
    /// row-major).
    #[cfg(test)]
    pub(crate) fn stencil_runs(&self) -> &StencilRuns {
        &self.index.runs
    }

    /// Value slab of system `i` (`width * num_rows`, in
    /// [`Self::layout`] order).
    #[inline]
    pub fn values_of(&self, i: usize) -> &[T] {
        let slab = self.index.slab_len();
        &self.values[i * slab..(i + 1) * slab]
    }

    /// Mutable value slab of system `i`.
    #[inline]
    pub fn values_of_mut(&mut self, i: usize) -> &mut [T] {
        let slab = self.index.slab_len();
        &mut self.values[i * slab..(i + 1) * slab]
    }

    /// Split into disjoint per-system mutable value slabs, in system
    /// order (for filling the batch in parallel, one system per block).
    pub fn systems_mut(&mut self) -> impl Iterator<Item = &mut [T]> {
        // A slab is never empty: the width and the row count are non-zero.
        self.values.chunks_exact_mut(self.index.slab_len())
    }

    /// Read entry `(row, col)` of system `i` (zero if not stored).
    pub fn get(&self, i: usize, row: usize, col: usize) -> T {
        let n = self.dims.num_rows;
        for k in 0..self.width() {
            let idx = self.layout().index(n, self.width(), row, k);
            if self.col_idxs()[idx] == col as u32 {
                return self.values_of(i)[idx];
            }
        }
        T::ZERO
    }

    /// Fill system `i` from an entry function over the stored pattern.
    pub fn fill_system(&mut self, i: usize, mut f: impl FnMut(usize, usize) -> T) {
        let n = self.dims.num_rows;
        let width = self.index.width;
        let layout = self.index.layout;
        let len = width * n;
        let cols = &self.index.col_idxs;
        let slab = &mut self.values[i * len..(i + 1) * len];
        for r in 0..n {
            for k in 0..width {
                let idx = layout.index(n, width, r, k);
                let c = cols[idx];
                if c != ELL_PAD {
                    slab[idx] = f(r, c as usize);
                }
            }
        }
    }

    /// Fraction of value slots that are padding (the waste the paper calls
    /// "very little padding necessary, only for the boundary points").
    pub fn padding_fraction(&self) -> f64 {
        let slots = self.index.slab_len();
        let pad = slots - self.pattern().nnz();
        pad as f64 / slots as f64
    }
}

fma_kernel! {
    /// Column-major `y = A·x` for one system, in the thread-per-row
    /// mapping: the outer k loop walks the stencil entries; for each k,
    /// "threads" (rows) stream consecutive slots. Each of the slot's
    /// unit-stride runs is a three-slice zip the compiler vectorizes;
    /// only the leftover rows gather `x`, and padding rows are skipped.
    /// Every row adds its entries in ascending k, as in the row-major
    /// kernel, so the two agree bit for bit.
    fn spmv_col_major<T: Scalar>(runs: &StencilRuns, col_idxs: &[u32], slab: &[T], x: &[T], y: &mut [T]) {
        let n = y.len();
        y.iter_mut().for_each(|v| *v = T::ZERO);
        for k in 0..runs.width {
            let cols = &col_idxs[k * n..(k + 1) * n];
            let vals = &slab[k * n..(k + 1) * n];
            for (r, c, len) in runs.runs(k) {
                let ys = y[r..r + len].iter_mut();
                for ((yr, &v), &xc) in ys.zip(&vals[r..r + len]).zip(&x[c..c + len]) {
                    *yr = v.mul_add(xc, *yr);
                }
            }
            for &r in runs.gathered(k) {
                let r = r as usize;
                y[r] = vals[r].mul_add(x[cols[r] as usize], y[r]);
            }
        }
    }
}

fma_kernel! {
    /// Row-major `y = A·x` for one system, row at a time: each row's
    /// `width` entries are contiguous. Accumulation visits k in the same
    /// ascending order as the column-major kernel, so results are
    /// bitwise identical.
    fn spmv_row_major<T: Scalar>(width: usize, col_idxs: &[u32], slab: &[T], x: &[T], y: &mut [T]) {
        let rows = col_idxs.chunks_exact(width).zip(slab.chunks_exact(width));
        for (yr, (cols, vals)) in y.iter_mut().zip(rows) {
            let mut acc = T::ZERO;
            for (&c, &v) in cols.iter().zip(vals) {
                if c != ELL_PAD {
                    acc = v.mul_add(x[c as usize], acc);
                }
            }
            *yr = acc;
        }
    }
}

impl<T: Scalar> BatchMatrix<T> for BatchEll<T> {
    fn dims(&self) -> BatchDims {
        self.dims
    }

    fn format_name(&self) -> &'static str {
        match self.layout() {
            ValueLayout::ColMajor => "BatchEll",
            ValueLayout::RowMajor => "BatchEll(row-major)",
        }
    }

    fn stored_per_system(&self) -> usize {
        self.index.slab_len()
    }

    fn spmv_system(&self, i: usize, x: &[T], y: &mut [T]) {
        debug_assert_eq!(x.len(), self.dims.num_rows);
        debug_assert_eq!(y.len(), self.dims.num_rows);
        let slab = self.values_of(i);
        match self.layout() {
            ValueLayout::ColMajor => spmv_col_major(&self.index.runs, self.col_idxs(), slab, x, y),
            ValueLayout::RowMajor => spmv_row_major(self.width(), self.col_idxs(), slab, x, y),
        }
    }

    fn spmv_system_advanced(&self, i: usize, alpha: T, x: &[T], beta: T, y: &mut [T]) {
        let mut acc = vec![T::ZERO; y.len()];
        self.spmv_system(i, x, &mut acc);
        for (yr, &a) in y.iter_mut().zip(acc.iter()) {
            *yr = alpha * a + beta * *yr;
        }
    }

    fn extract_diagonal(&self, i: usize, diag: &mut [T]) {
        let n = self.dims.num_rows;
        let slab = self.values_of(i);
        match self.layout() {
            ValueLayout::ColMajor => {
                // A row stores its diagonal in at most one slot: copy the
                // runs on the main diagonal whole, then check the gathered
                // rows.
                diag.iter_mut().for_each(|d| *d = T::ZERO);
                for k in 0..self.width() {
                    let vals = &slab[k * n..(k + 1) * n];
                    for (r, _, len) in self.index.runs.runs(k).filter(|&(r, c, _)| r == c) {
                        diag[r..r + len].copy_from_slice(&vals[r..r + len]);
                    }
                    for &r in self.index.runs.gathered(k) {
                        if self.col_idxs()[k * n + r as usize] == r {
                            diag[r as usize] = vals[r as usize];
                        }
                    }
                }
            }
            ValueLayout::RowMajor => {
                for r in 0..n {
                    let mut d = T::ZERO;
                    for k in 0..self.width() {
                        let idx = self.layout().index(n, self.width(), r, k);
                        if self.col_idxs()[idx] == r as u32 {
                            d = slab[idx];
                            break;
                        }
                    }
                    diag[r] = d;
                }
            }
        }
    }

    fn entry(&self, i: usize, row: usize, col: usize) -> T {
        self.get(i, row, col)
    }

    fn spmv_x_read_bytes(&self) -> u64 {
        // Gathers skip the padding slots.
        (self.pattern().nnz() * T::BYTES) as u64
    }

    fn spmv_counts(&self, warp_size: u32) -> OpCounts {
        let mut c = OpCounts::ZERO;
        let n = self.dims.num_rows as u64;
        let w = warp_size as u64;
        let warps = n.div_ceil(w);
        // One thread per row; k-th pass touches all rows whose nnz > k.
        for k in 0..self.width() {
            let active: u64 = (0..self.dims.num_rows)
                .filter(|&r| self.pattern().nnz_in_row(r) > k)
                .count() as u64;
            // Every warp still issues the pass (they walk k in lockstep).
            c.lane_total += warps * w;
            c.lane_active += active;
            c.flops += 2 * active;
        }
        let vb = T::BYTES as u64;
        let slots = (self.width() as u64) * n;
        // Slab traffic (values + indices) pays the layout's coalescing
        // factor: column-major streams, row-major strides by `width`.
        let amp = self.layout().traffic_amplification(self.width());
        c.global_read_bytes += slots * vb * amp; // values incl. padding
        c.global_read_bytes += slots * 4 * amp; // shared column indices
        c.global_read_bytes += (self.pattern().nnz() as u64) * vb; // gathered x
        c.global_write_bytes += n * vb; // y
        c
    }

    fn value_bytes_per_system(&self) -> usize {
        self.index.slab_len() * T::BYTES
    }

    fn shared_index_bytes(&self) -> usize {
        // Figure 3: num_nnz_per_row x num_rows indices, stored once.
        self.index.slab_len() * core::mem::size_of::<u32>()
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
            let scale = (i + 1) as f64;
            m.fill_system(i, |r, c| {
                if r == c {
                    4.0 * scale
                } else {
                    -0.3 * scale * ((r + c) % 3 + 1) as f64
                }
            });
        }
        m
    }

    #[test]
    fn systems_mut_yields_one_slab_per_system_in_order() {
        for layout in [ValueLayout::ColMajor, ValueLayout::RowMajor] {
            let mut m = BatchEll::from_csr_in(&stencil_csr(5, 4), layout).unwrap();
            let slabs: Vec<usize> = m.systems_mut().map(|s| s.len()).collect();
            assert_eq!(slabs, [m.width() * 20; 2]);
            for (i, slab) in m.systems_mut().enumerate() {
                slab.iter_mut().for_each(|v| *v = i as f64);
            }
            for i in 0..2 {
                assert!(m.values_of(i).iter().all(|&v| v == i as f64));
            }
        }
    }

    #[test]
    fn batches_on_one_index_share_it_and_match_from_csr() {
        let csr = stencil_csr(7, 6);
        for layout in [ValueLayout::ColMajor, ValueLayout::RowMajor] {
            let index = Arc::new(EllIndex::new(Arc::clone(csr.pattern()), layout));
            let mut ell = BatchEll::zeros_on(2, Arc::clone(&index)).unwrap();
            for i in 0..2 {
                ell.copy_csr_values(i, csr.values_of(i)).unwrap();
            }
            let reference = BatchEll::from_csr_in(&csr, layout).unwrap();
            assert_eq!(
                Arc::strong_count(&index),
                2,
                "{layout:?}: one index, shared"
            );
            assert_eq!(ell.col_idxs(), reference.col_idxs(), "{layout:?}");
            for i in 0..2 {
                assert_eq!(ell.values_of(i), reference.values_of(i), "{layout:?}");
            }
            assert!(ell.copy_csr_values(0, &csr.values_of(0)[1..]).is_err());
        }
        let empty = Arc::new(SparsityPattern::from_coords(0, &[]).unwrap());
        assert!(BatchEll::<f64>::zeros(1, empty).is_err());
    }

    #[test]
    fn ell_spmv_matches_csr() {
        let csr = stencil_csr(5, 4);
        let ell = BatchEll::from_csr(&csr).unwrap();
        let x = BatchVectors::from_fn(csr.dims(), |s, r| ((s + 1) * (r + 1)) as f64 * 0.1);
        let mut y_csr = BatchVectors::zeros(csr.dims());
        let mut y_ell = BatchVectors::zeros(csr.dims());
        csr.spmv(&x, &mut y_csr).unwrap();
        ell.spmv(&x, &mut y_ell).unwrap();
        for i in 0..2 {
            for r in 0..20 {
                assert!(
                    (y_csr.system(i)[r] - y_ell.system(i)[r]).abs() < 1e-12,
                    "mismatch at system {i} row {r}"
                );
            }
        }
    }

    #[test]
    fn layouts_produce_bitwise_identical_spmv() {
        let csr = stencil_csr(7, 6);
        let col = BatchEll::from_csr_in(&csr, ValueLayout::ColMajor).unwrap();
        let row = BatchEll::from_csr_in(&csr, ValueLayout::RowMajor).unwrap();
        assert_eq!(col.format_name(), "BatchEll");
        assert_eq!(row.format_name(), "BatchEll(row-major)");
        let x = BatchVectors::from_fn(csr.dims(), |s, r| ((s * 13 + r) as f64 * 0.37).sin());
        let mut y_col = BatchVectors::zeros(csr.dims());
        let mut y_row = BatchVectors::zeros(csr.dims());
        col.spmv(&x, &mut y_col).unwrap();
        row.spmv(&x, &mut y_row).unwrap();
        // Same accumulation order per row — not just close, identical.
        assert_eq!(y_col.values(), y_row.values());
    }

    #[test]
    fn to_layout_round_trips() {
        let csr = stencil_csr(5, 5);
        let col = BatchEll::from_csr(&csr).unwrap();
        let row = col.to_layout(ValueLayout::RowMajor);
        assert_eq!(row.layout(), ValueLayout::RowMajor);
        let back = row.to_layout(ValueLayout::ColMajor);
        assert_eq!(back.values_of(1), col.values_of(1));
        assert_eq!(back.col_idxs(), col.col_idxs());
    }

    #[test]
    fn roundtrip_csr_ell_csr_both_layouts() {
        let csr = stencil_csr(4, 3);
        for layout in [ValueLayout::ColMajor, ValueLayout::RowMajor] {
            let back = BatchEll::from_csr_in(&csr, layout).unwrap().to_csr();
            for i in 0..2 {
                assert_eq!(csr.values_of(i), back.values_of(i), "{layout:?}");
            }
        }
    }

    #[test]
    fn padding_only_at_boundaries() {
        let csr = stencil_csr(32, 31);
        let ell = BatchEll::from_csr(&csr).unwrap();
        assert_eq!(ell.width(), 9);
        // 992 rows * 9 slots = 8928; interior rows are unpadded.
        let frac = ell.padding_fraction();
        assert!(frac > 0.0 && frac < 0.15, "padding fraction {frac}");
    }

    #[test]
    fn diagonal_matches_csr_in_both_layouts() {
        // Row 5 stores no diagonal entry: it must read 0 in every format.
        let coords: Vec<(usize, usize)> = (0..12)
            .flat_map(|r| [(r, r), (r, (r * 5 + 3) % 12), (r, (r + 11) % 12)])
            .filter(|&(r, c)| r != 5 || c != 5)
            .collect();
        let ragged = Arc::new(SparsityPattern::from_coords(12, &coords).unwrap());
        assert_eq!(ragged.diag_position(5), None);
        let mut ragged_csr = BatchCsr::zeros(2, ragged).unwrap();
        for i in 0..2 {
            ragged_csr.fill_system(i, |r, c| (i * 100 + r * 12 + c) as f64 + 0.5);
        }
        for csr in [
            stencil_csr(5, 5),
            stencil_csr(32, 31),
            stencil_csr(8, 9),
            stencil_csr(3, 3),
            ragged_csr,
        ] {
            let n = csr.dims().num_rows;
            let mut d_csr = vec![0.0; n];
            csr.extract_diagonal(1, &mut d_csr);
            for layout in [ValueLayout::ColMajor, ValueLayout::RowMajor] {
                let ell = BatchEll::from_csr_in(&csr, layout).unwrap();
                // Stale contents must not survive into rows without a
                // diagonal.
                let mut d_ell = vec![f64::NAN; n];
                ell.extract_diagonal(1, &mut d_ell);
                assert_eq!(d_csr, d_ell, "{n} rows {layout:?}");
            }
        }
    }

    #[test]
    fn ell_warp_utilization_is_high() {
        // The paper's Table II: ELL reaches ~98% warp use, CSR ~75% or less.
        let csr = stencil_csr(32, 31);
        let ell = BatchEll::from_csr(&csr).unwrap();
        let u_ell = ell.spmv_counts(32).lane_utilization();
        let u_csr = csr.spmv_counts(32).lane_utilization();
        assert!(u_ell > 0.85, "ELL utilization {u_ell}");
        assert!(u_ell > u_csr, "ELL {u_ell} must beat CSR {u_csr}");
    }

    #[test]
    fn row_major_pays_coalescing_penalty_in_the_model() {
        let csr = stencil_csr(32, 31);
        let col = BatchEll::from_csr_in(&csr, ValueLayout::ColMajor).unwrap();
        let row = BatchEll::from_csr_in(&csr, ValueLayout::RowMajor).unwrap();
        let col_bytes = col.spmv_counts(32).global_read_bytes;
        let row_bytes = row.spmv_counts(32).global_read_bytes;
        assert!(
            row_bytes > 5 * col_bytes,
            "row-major {row_bytes} should amplify traffic vs col-major {col_bytes}"
        );
    }

    #[test]
    fn get_reads_stored_and_padding() {
        let csr = stencil_csr(3, 3);
        for layout in [ValueLayout::ColMajor, ValueLayout::RowMajor] {
            let ell = BatchEll::from_csr_in(&csr, layout).unwrap();
            assert_eq!(ell.get(0, 4, 4), csr.get(0, 4, 4), "{layout:?}");
            assert_eq!(ell.get(0, 0, 8), 0.0); // not in pattern
        }
    }

    #[test]
    fn fill_system_matches_csr_fill() {
        for layout in [ValueLayout::ColMajor, ValueLayout::RowMajor] {
            let p = Arc::new(SparsityPattern::stencil_2d(4, 4, true));
            let mut csr = BatchCsr::<f64>::zeros(1, p.clone()).unwrap();
            let mut ell = BatchEll::<f64>::zeros_in(1, p, layout).unwrap();
            let f = |r: usize, c: usize| (r * 31 + c) as f64;
            csr.fill_system(0, f);
            ell.fill_system(0, f);
            for r in 0..16 {
                for c in 0..16 {
                    assert_eq!(csr.get(0, r, c), ell.get(0, r, c), "({r},{c}) {layout:?}");
                }
            }
        }
    }

    #[test]
    fn storage_accounting() {
        let csr = stencil_csr(32, 31);
        let ell = BatchEll::from_csr(&csr).unwrap();
        assert_eq!(ell.value_bytes_per_system(), 9 * 992 * 8);
        assert_eq!(ell.shared_index_bytes(), 9 * 992 * 4);
        assert_eq!(ell.stored_per_system(), 9 * 992);
    }
}
