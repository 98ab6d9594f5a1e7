//! Benchmark workload generators.
//!
//! The evaluation batches of the paper: "repetitions of ion and electron
//! matrices similar to XGC runs ... the number of electron matrices is
//! equal to the number of ion matrices in every batch". Each mesh node
//! gets slightly different moments, so every matrix in the batch is a
//! distinct numerical instance over the one shared pattern.

use std::sync::Arc;

use batsolv_formats::{
    BatchBanded, BatchCsr, BatchEll, BatchMatrix, BatchVectors, SparsityPattern,
};
use batsolv_types::{BatchDims, Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::grid::VelocityGrid;
use crate::moments::Moments;
use crate::operator_assembly::ScatterPlan;
use crate::species::Species;

/// A ready-to-solve linear-system batch in the paper's evaluation shape.
#[derive(Clone, Debug)]
pub struct XgcWorkload {
    /// The velocity grid the matrices were assembled on.
    pub grid: VelocityGrid,
    /// Interleaved ion/electron matrices (`2k` = ion, `2k+1` = electron).
    pub matrices: BatchCsr<f64>,
    /// Right-hand sides (the old-time-level distributions).
    pub rhs: BatchVectors<f64>,
    /// A warm initial guess (the previous Picard iterate — here the RHS
    /// itself, which is exactly what Picard iteration 0 uses).
    pub warm_guess: BatchVectors<f64>,
    /// Species name per batch entry.
    pub species_of: Vec<&'static str>,
}

impl XgcWorkload {
    /// Generate a combined batch of `num_pairs` (ion, electron) systems.
    pub fn generate(grid: VelocityGrid, num_pairs: usize, seed: u64) -> Result<XgcWorkload> {
        Self::generate_with(grid, num_pairs, seed, &Species::xgc_pair())
    }

    /// Generate a single-species batch (`Figure 9`'s ion-only and
    /// electron-only curves).
    pub fn generate_single_species(
        grid: VelocityGrid,
        species: Species,
        num_systems: usize,
        seed: u64,
    ) -> Result<XgcWorkload> {
        Self::generate_with(grid, num_systems, seed, &[species])
    }

    fn generate_with(
        grid: VelocityGrid,
        groups: usize,
        seed: u64,
        lineup: &[Species],
    ) -> Result<XgcWorkload> {
        let mut rng = StdRng::seed_from_u64(seed);
        let per_group = lineup.len();
        let total = groups * per_group;
        let dims = BatchDims::new(total, grid.num_nodes())?;
        let pattern = Arc::new(grid.stencil_pattern());
        let plan = ScatterPlan::csr(&grid, &pattern);
        let mut matrices = BatchCsr::zeros(total, pattern)?;
        let mut rhs = BatchVectors::zeros(dims);
        let mut species_of = Vec::with_capacity(total);
        for g in 0..groups {
            // Node-local plasma conditions, shared by every species at
            // this mesh node.
            let n0: f64 = 0.8 + 0.4 * rng.gen::<f64>();
            let u0: f64 = -0.3 + 0.6 * rng.gen::<f64>();
            let t0: f64 = 0.85 + 0.3 * rng.gen::<f64>();
            // RHS: the old-time distribution with a beam bump.
            let main = grid.maxwellian(n0, u0, t0);
            let bump = grid.maxwellian(0.25 * n0, u0 + 1.2, 0.4 * t0);
            let f: Vec<f64> = main.iter().zip(bump.iter()).map(|(a, b)| a + b).collect();
            let moments = Moments::compute(&grid, &f);
            for (s, species) in lineup.iter().enumerate() {
                let idx = g * per_group + s;
                plan.assemble(species, &moments, matrices.values_of_mut(idx));
                rhs.system_mut(idx).copy_from_slice(&f);
                species_of.push(species.name);
            }
        }
        let warm_guess = rhs.clone();
        Ok(XgcWorkload {
            grid,
            matrices,
            rhs,
            warm_guess,
            species_of,
        })
    }

    /// Batch size (systems).
    pub fn num_systems(&self) -> usize {
        self.matrices.dims().num_systems
    }

    /// The sparsity pattern shared by every system of the workload.
    pub fn pattern(&self) -> &Arc<SparsityPattern> {
        self.matrices.pattern()
    }

    /// Borrow one mesh node's system — the unit of work a solve service
    /// receives when XGC streams nodes instead of handing over the whole
    /// batch. Panics on an out-of-range index; dynamic callers (fan-out
    /// code indexing by request payload) should use [`Self::try_system`].
    pub fn system(&self, i: usize) -> SystemView<'_> {
        self.try_system(i)
            .unwrap_or_else(|_| panic!("system index {i} out of range"))
    }

    /// Checked variant of [`Self::system`]: a structured
    /// [`Error::IndexOutOfBounds`] instead of a panic, in every build
    /// profile (the underlying slice math would otherwise only be
    /// assert-guarded in debug builds).
    pub fn try_system(&self, i: usize) -> Result<SystemView<'_>> {
        if i >= self.num_systems() {
            return Err(Error::IndexOutOfBounds {
                index: i,
                len: self.num_systems(),
                context: "XGC workload systems",
            });
        }
        Ok(SystemView {
            index: i,
            species: self.species_of[i],
            values: self.matrices.values_of(i),
            rhs: self.rhs.system(i),
            warm_guess: self.warm_guess.system(i),
        })
    }

    /// Iterate over every per-node system in batch order.
    pub fn systems(&self) -> impl Iterator<Item = SystemView<'_>> {
        (0..self.num_systems()).map(|i| self.system(i))
    }

    /// ELL view of the batch (the paper's preferred format).
    pub fn ell(&self) -> Result<BatchEll<f64>> {
        BatchEll::from_csr(&self.matrices)
    }

    /// Banded view of the batch (for `dgbsv` and QR baselines).
    pub fn banded(&self) -> Result<BatchBanded<f64>> {
        BatchBanded::from_csr(&self.matrices)
    }
}

/// One mesh node's linear system, borrowed out of a workload batch.
#[derive(Clone, Copy, Debug)]
pub struct SystemView<'a> {
    /// Position within the batch.
    pub index: usize,
    /// Species name ("ion" or "electron").
    pub species: &'static str,
    /// CSR values over the shared pattern.
    pub values: &'a [f64],
    /// Right-hand side (old-time distribution).
    pub rhs: &'a [f64],
    /// Warm initial guess (previous Picard iterate).
    pub warm_guess: &'a [f64],
}

impl SystemView<'_> {
    /// First non-finite entry across the system's payload, as
    /// `(field, index)` — `None` when the node is clean. A NaN/Inf here
    /// would otherwise flow untouched into a fused launch shared with
    /// thousands of healthy nodes; submitters (and the runtime's
    /// admission gate) use this to bounce the poisoned node alone.
    pub fn first_non_finite(&self) -> Option<(&'static str, usize)> {
        let scan = |field: &'static str, data: &[f64]| {
            data.iter()
                .position(|v| !v.is_finite())
                .map(|idx| (field, idx))
        };
        scan("values", self.values)
            .or_else(|| scan("rhs", self.rhs))
            .or_else(|| scan("warm_guess", self.warm_guess))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsolv_formats::BatchMatrix;
    use batsolv_gpusim::DeviceSpec;
    use batsolv_solvers::{AbsResidual, BatchBicgstab, Jacobi};

    #[test]
    fn combined_batch_interleaves_species() {
        let w = XgcWorkload::generate(VelocityGrid::small(8, 7), 3, 1).unwrap();
        assert_eq!(w.num_systems(), 6);
        assert_eq!(
            w.species_of,
            ["ion", "electron", "ion", "electron", "ion", "electron"]
        );
    }

    #[test]
    fn systems_differ_across_mesh_nodes() {
        let w = XgcWorkload::generate(VelocityGrid::small(8, 7), 2, 42).unwrap();
        // Two ion matrices from different nodes must differ.
        assert_ne!(w.matrices.values_of(0), w.matrices.values_of(2));
        // And both species share the pattern.
        assert_eq!(w.matrices.pattern().nnz(), w.grid.stencil_pattern().nnz());
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let a = XgcWorkload::generate(VelocityGrid::small(6, 5), 2, 9).unwrap();
        let b = XgcWorkload::generate(VelocityGrid::small(6, 5), 2, 9).unwrap();
        assert_eq!(a.matrices.values_of(1), b.matrices.values_of(1));
        let c = XgcWorkload::generate(VelocityGrid::small(6, 5), 2, 10).unwrap();
        assert_ne!(a.matrices.values_of(1), c.matrices.values_of(1));
    }

    #[test]
    fn workload_solves_at_paper_tolerance() {
        let w = XgcWorkload::generate(VelocityGrid::small(10, 9), 2, 5).unwrap();
        let mut x = BatchVectors::zeros(w.rhs.dims());
        let rep = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&DeviceSpec::v100(), &w.matrices, &w.rhs, &mut x)
            .unwrap();
        assert!(rep.all_converged());
        assert!(w.matrices.max_residual_norm(&x, &w.rhs).unwrap() < 1e-8);
        // Electron entries (odd) take more iterations than ions (even).
        assert!(rep.per_system[1].iterations > rep.per_system[0].iterations);
    }

    #[test]
    fn per_node_extraction_matches_batch_storage() {
        let w = XgcWorkload::generate(VelocityGrid::small(8, 7), 2, 11).unwrap();
        let nnz = w.pattern().nnz();
        let n = w.grid.num_nodes();
        let mut seen = 0;
        for (i, sys) in w.systems().enumerate() {
            assert_eq!(sys.index, i);
            assert_eq!(sys.values.len(), nnz);
            assert_eq!(sys.rhs.len(), n);
            assert_eq!(sys.warm_guess.len(), n);
            assert_eq!(sys.values, w.matrices.values_of(i));
            assert_eq!(sys.rhs, w.rhs.system(i));
            assert_eq!(sys.species, w.species_of[i]);
            seen += 1;
        }
        assert_eq!(seen, w.num_systems());
    }

    #[test]
    fn first_non_finite_flags_poisoned_nodes() {
        let mut w = XgcWorkload::generate(VelocityGrid::small(6, 5), 1, 4).unwrap();
        assert!(w.systems().all(|s| s.first_non_finite().is_none()));
        // Poison one node's RHS and one node's matrix values.
        w.rhs.system_mut(0)[7] = f64::NAN;
        w.matrices.values_of_mut(1)[3] = f64::INFINITY;
        assert_eq!(w.system(0).first_non_finite(), Some(("rhs", 7)));
        assert_eq!(w.system(1).first_non_finite(), Some(("values", 3)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn per_node_extraction_bounds_checked() {
        let w = XgcWorkload::generate(VelocityGrid::small(6, 5), 1, 0).unwrap();
        let _ = w.system(99);
    }

    #[test]
    fn try_system_returns_structured_error_not_panic() {
        let w = XgcWorkload::generate(VelocityGrid::small(6, 5), 1, 0).unwrap();
        assert_eq!(w.try_system(1).unwrap().index, 1);
        match w.try_system(99) {
            Err(Error::IndexOutOfBounds {
                index,
                len,
                context,
            }) => {
                assert_eq!(index, 99);
                assert_eq!(len, 2);
                assert_eq!(context, "XGC workload systems");
            }
            other => panic!("expected IndexOutOfBounds, got {other:?}"),
        }
    }

    #[test]
    fn single_species_generation() {
        let w =
            XgcWorkload::generate_single_species(VelocityGrid::small(6, 5), Species::ion(), 4, 2)
                .unwrap();
        assert_eq!(w.num_systems(), 4);
        assert!(w.species_of.iter().all(|s| *s == "ion"));
    }

    #[test]
    fn format_views_are_consistent() {
        let w = XgcWorkload::generate(VelocityGrid::small(6, 5), 1, 3).unwrap();
        let ell = w.ell().unwrap();
        let banded = w.banded().unwrap();
        let x: Vec<f64> = (0..30).map(|k| (k as f64 * 0.3).sin()).collect();
        let mut y1 = vec![0.0; 30];
        let mut y2 = vec![0.0; 30];
        let mut y3 = vec![0.0; 30];
        w.matrices.spmv_system(1, &x, &mut y1);
        ell.spmv_system(1, &x, &mut y2);
        banded.spmv_system(1, &x, &mut y3);
        for r in 0..30 {
            assert!((y1[r] - y2[r]).abs() < 1e-13);
            assert!((y1[r] - y3[r]).abs() < 1e-13);
        }
    }
}
