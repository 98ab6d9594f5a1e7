//! Value-layout selection for the padded batch formats.
//!
//! ELL and DIA store a dense `num_rows x width` (resp. `num_rows x
//! num_diagonals`) slab of values per system. The *order* of that slab is
//! the paper's Figure 5 argument: with one GPU thread per row, storing the
//! slab **column-major** (all rows' k-th entries contiguous) makes
//! consecutive threads touch consecutive addresses — fully coalesced
//! loads — while the textbook **row-major** order makes every warp load a
//! strided gather. On the host the same choice decides whether the inner
//! stencil loop walks unit-stride slices that LLVM can autovectorize.
//!
//! Both layouts hold bitwise-identical values in a different order, so
//! kernels over either layout produce bitwise-identical results (the
//! per-row accumulation order is the same); only the memory-access shape
//! differs. The differential suite in `batsolv-solvers` relies on this.

/// Memory order of a per-system padded value slab.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ValueLayout {
    /// Entry `(row, k)` at `k * num_rows + row`: all rows' k-th stencil
    /// entries are contiguous. Coalesced on a GPU (one thread per row),
    /// unit-stride vectorizable on the host. The paper's layout.
    #[default]
    ColMajor,
    /// Entry `(row, k)` at `row * width + k`: each row's entries are
    /// contiguous. Natural for sequential row-at-a-time CPU code, strided
    /// (uncoalesced) for thread-per-row GPU execution. Kept as the
    /// measured baseline the column-major layout is compared against.
    RowMajor,
}

impl ValueLayout {
    /// Flat slab index of entry `(row, k)` for a `num_rows x width` slab.
    #[inline(always)]
    pub fn index(self, num_rows: usize, width: usize, row: usize, k: usize) -> usize {
        match self {
            ValueLayout::ColMajor => k * num_rows + row,
            ValueLayout::RowMajor => row * width + k,
        }
    }

    /// Short lowercase name (`"col"` / `"row"`), used in reports and the
    /// benchmark JSON.
    pub fn short_name(self) -> &'static str {
        match self {
            ValueLayout::ColMajor => "col",
            ValueLayout::RowMajor => "row",
        }
    }

    /// Traffic amplification factor a thread-per-row GPU kernel pays for
    /// reading the slab in this layout: column-major loads are fully
    /// coalesced (factor 1); row-major loads stride by `width` elements,
    /// so each 128-byte transaction serves roughly one row and up to
    /// `width` times the data moves (capped at the 16 doubles a
    /// transaction holds).
    pub fn traffic_amplification(self, width: usize) -> u64 {
        match self {
            ValueLayout::ColMajor => 1,
            ValueLayout::RowMajor => width.clamp(1, 16) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_bijective_and_layout_specific() {
        let (n, w) = (5, 3);
        let mut seen_col = vec![false; n * w];
        let mut seen_row = vec![false; n * w];
        for r in 0..n {
            for k in 0..w {
                seen_col[ValueLayout::ColMajor.index(n, w, r, k)] = true;
                seen_row[ValueLayout::RowMajor.index(n, w, r, k)] = true;
            }
        }
        assert!(seen_col.iter().all(|&s| s));
        assert!(seen_row.iter().all(|&s| s));
        assert_eq!(ValueLayout::ColMajor.index(n, w, 2, 1), n + 2);
        assert_eq!(ValueLayout::RowMajor.index(n, w, 2, 1), 2 * w + 1);
    }

    #[test]
    fn default_is_the_papers_layout() {
        assert_eq!(ValueLayout::default(), ValueLayout::ColMajor);
    }

    #[test]
    fn amplification_models_coalescing() {
        assert_eq!(ValueLayout::ColMajor.traffic_amplification(9), 1);
        assert_eq!(ValueLayout::RowMajor.traffic_amplification(9), 9);
        assert_eq!(ValueLayout::RowMajor.traffic_amplification(40), 16);
    }
}
