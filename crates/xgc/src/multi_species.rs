//! Multi-species collision proxy — the paper's stated future workload.
//!
//! Section II.A: "the future XGC application is expected to simulate
//! multiple ion species (~10) and electrons, \[while\] the proxy app
//! currently simulates a plasma with one ion species (along with
//! electrons)". This module implements that future configuration: an
//! arbitrary lineup of species per mesh node, all sharing the one
//! nine-point pattern, batched into a single combined solve. Because the
//! batch size scales with the species count, multi-species runs saturate
//! the GPU at proportionally fewer mesh nodes — which is precisely why
//! the batched-solver design matters for the production application.

use std::sync::{Arc, OnceLock};

use batsolv_formats::{BatchEll, BatchVectors, EllIndex, ValueLayout};
use batsolv_gpusim::{run_batch_mut, DeviceSpec};
use batsolv_solvers::{AbsResidual, BatchBicgstab, Jacobi};
use batsolv_types::{BatchDims, Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::grid::VelocityGrid;
use crate::moments::Moments;
use crate::operator_assembly::ScatterPlan;
use crate::picard::IterStats;
use crate::species::Species;

/// A plasma with an arbitrary species lineup (e.g. 10 ion isotopes plus
/// electrons) at every mesh node.
#[derive(Clone, Debug)]
pub struct MultiSpeciesProxy {
    /// Velocity grid (species-normalized units).
    pub grid: VelocityGrid,
    /// The species lineup; one linear system per (node, species).
    pub species: Vec<Species>,
    /// Picard iterations per implicit step.
    pub picard_iterations: usize,
    /// Linear-solver absolute tolerance.
    pub tolerance: f64,
    /// Spatial mesh nodes.
    pub num_mesh_nodes: usize,
    /// The column-major ELL index of the shared nine-point pattern,
    /// which every step's batch is built on.
    index: Arc<EllIndex>,
    /// Scatter plan into ELL slabs, recorded on first use.
    plan: OnceLock<ScatterPlan>,
}

/// Distribution functions: one [`BatchVectors`] per species.
#[derive(Clone, Debug)]
pub struct MultiSpeciesState {
    /// `f[s]` is species `s`'s distribution over all mesh nodes.
    pub f: Vec<BatchVectors<f64>>,
}

/// Result of one multi-species Picard step.
#[derive(Clone, Debug)]
pub struct MultiSpeciesReport {
    /// Per-Picard-iteration, per-species iteration stats.
    pub linear_iters: Vec<Vec<IterStats>>,
    /// Total simulated solve time.
    pub total_solve_time_s: f64,
    /// Per-species relative density drift over the step.
    pub density_drift: Vec<f64>,
    /// Combined batch size per linear solve.
    pub batch_size: usize,
}

impl MultiSpeciesProxy {
    /// The paper's future configuration: `num_ions` ion species (a mass
    /// ladder of isotopes/impurities) plus electrons.
    pub fn future_xgc(grid: VelocityGrid, num_mesh_nodes: usize, num_ions: usize) -> Self {
        let mut species = Vec::with_capacity(num_ions + 1);
        for k in 0..num_ions {
            let base = Species::ion();
            species.push(Species {
                name: ION_NAMES[k % ION_NAMES.len()],
                mass: 1.0 + k as f64, // isotope / impurity mass ladder
                // Heavier species collide somewhat faster in normalized
                // units (higher charge states); keep all in the
                // ion-like well-conditioned regime.
                dt_nu: base.dt_nu * (1.0 + 0.4 * k as f64),
                aniso: base.aniso,
            });
        }
        species.push(Species::electron());
        MultiSpeciesProxy {
            grid,
            species,
            picard_iterations: 5,
            tolerance: 1e-10,
            num_mesh_nodes,
            index: Arc::new(EllIndex::new(
                Arc::new(grid.stencil_pattern()),
                ValueLayout::ColMajor,
            )),
            plan: OnceLock::new(),
        }
    }

    /// Number of systems in each combined linear solve.
    pub fn batch_size(&self) -> usize {
        self.num_mesh_nodes * self.species.len()
    }

    /// Initial state: perturbed Maxwellians with a beam bump, per node
    /// and species.
    pub fn initial_state(&self, seed: u64) -> MultiSpeciesState {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims =
            BatchDims::new(self.num_mesh_nodes, self.grid.num_nodes()).expect("valid proxy dims");
        let f = self
            .species
            .iter()
            .map(|_| {
                let mut v = BatchVectors::zeros(dims);
                for node in 0..self.num_mesh_nodes {
                    let n0: f64 = 0.8 + 0.4 * rng.gen::<f64>();
                    let u0: f64 = -0.3 + 0.6 * rng.gen::<f64>();
                    let t0: f64 = 0.85 + 0.3 * rng.gen::<f64>();
                    let main = self.grid.maxwellian(n0, u0, t0);
                    let bump = self.grid.maxwellian(0.25 * n0, u0 + 1.2, 0.4 * t0);
                    let dst = v.system_mut(node);
                    for k in 0..dst.len() {
                        dst[k] = main[k] + bump[k];
                    }
                }
                v
            })
            .collect();
        MultiSpeciesState { f }
    }

    /// One implicit step with warm-started batched BiCGSTAB (ELL).
    pub fn run_picard(
        &self,
        state: &mut MultiSpeciesState,
        device: &DeviceSpec,
    ) -> Result<MultiSpeciesReport> {
        if state.f.len() != self.species.len() {
            return Err(Error::InvalidConfig(format!(
                "state has {} species, proxy {}",
                state.f.len(),
                self.species.len()
            )));
        }
        let nsp = self.species.len();
        let total = self.batch_size();
        let dims = BatchDims::new(total, self.grid.num_nodes())?;
        let f_n = self.interleave(state, dims)?;
        let density0: Vec<f64> = state
            .f
            .iter()
            .map(|f| total_density(&self.grid, f))
            .collect();

        let solver = BatchBicgstab::new(Jacobi, AbsResidual::new(self.tolerance));
        let mut iterate = state.clone();
        let mut linear_iters = Vec::new();
        let mut total_time = 0.0;
        let mut ell = BatchEll::zeros_on(total, Arc::clone(&self.index))?;
        let plan = self.plan.get_or_init(|| ScatterPlan::ell(&self.grid, &ell));
        for _ in 0..self.picard_iterations {
            // Assemble the combined batch from the current iterate, one
            // system per block, straight into the ELL slabs.
            run_batch_mut(ell.systems_mut().collect(), |k, slab| {
                let (node, s) = (k / nsp, k % nsp);
                let m = Moments::compute(&self.grid, iterate.f[s].system(node));
                plan.assemble(&self.species[s], &m, slab);
            });
            let mut x = self.interleave(&iterate, dims)?; // warm start
            let report = solver.solve(device, &ell, &f_n, &mut x)?;
            total_time += report.time_s();
            // Per-species stats.
            let mut stats = vec![IterStats::default(); nsp];
            for (s, st) in stats.iter_mut().enumerate() {
                let mut max = 0u32;
                let mut sum = 0u64;
                for node in 0..self.num_mesh_nodes {
                    let it = report.per_system[node * nsp + s].iterations;
                    max = max.max(it);
                    sum += it as u64;
                }
                st.max = max;
                st.mean = sum as f64 / self.num_mesh_nodes as f64;
            }
            linear_iters.push(stats);
            iterate = self.deinterleave(&x)?;
        }

        let density_drift = self
            .species
            .iter()
            .enumerate()
            .map(|(s, _)| {
                let d1 = total_density(&self.grid, &iterate.f[s]);
                ((d1 - density0[s]) / density0[s]).abs()
            })
            .collect();
        *state = iterate;
        Ok(MultiSpeciesReport {
            linear_iters,
            total_solve_time_s: total_time,
            density_drift,
            batch_size: total,
        })
    }

    fn interleave(&self, state: &MultiSpeciesState, dims: BatchDims) -> Result<BatchVectors<f64>> {
        let nsp = self.species.len();
        let mut v = BatchVectors::zeros(dims);
        for node in 0..self.num_mesh_nodes {
            for s in 0..nsp {
                v.system_mut(node * nsp + s)
                    .copy_from_slice(state.f[s].system(node));
            }
        }
        Ok(v)
    }

    fn deinterleave(&self, combined: &BatchVectors<f64>) -> Result<MultiSpeciesState> {
        let nsp = self.species.len();
        let dims = BatchDims::new(self.num_mesh_nodes, self.grid.num_nodes())?;
        let mut f = vec![BatchVectors::zeros(dims); nsp];
        for node in 0..self.num_mesh_nodes {
            for (s, fs) in f.iter_mut().enumerate() {
                fs.system_mut(node)
                    .copy_from_slice(combined.system(node * nsp + s));
            }
        }
        Ok(MultiSpeciesState { f })
    }
}

const ION_NAMES: [&str; 10] = [
    "deuterium",
    "tritium",
    "helium",
    "lithium",
    "beryllium",
    "boron",
    "carbon",
    "nitrogen",
    "oxygen",
    "neon",
];

fn total_density(grid: &VelocityGrid, f: &BatchVectors<f64>) -> f64 {
    (0..f.dims().num_systems)
        .map(|node| Moments::compute(grid, f.system(node)).density)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn future_xgc_lineup_has_ions_plus_electrons() {
        let p = MultiSpeciesProxy::future_xgc(VelocityGrid::small(8, 7), 4, 10);
        assert_eq!(p.species.len(), 11);
        assert_eq!(p.batch_size(), 44);
        assert_eq!(p.species.last().unwrap().name, "electron");
        // Mass ladder is increasing.
        let masses: Vec<f64> = p.species[..10].iter().map(|s| s.mass).collect();
        assert!(masses.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn multi_species_step_conserves_every_species() {
        let proxy = MultiSpeciesProxy::future_xgc(VelocityGrid::small(8, 7), 2, 4);
        let mut state = proxy.initial_state(3);
        let report = proxy.run_picard(&mut state, &DeviceSpec::a100()).unwrap();
        assert_eq!(report.density_drift.len(), 5);
        for (s, drift) in report.density_drift.iter().enumerate() {
            assert!(*drift < 1e-7, "species {s} drift {drift}");
        }
        assert_eq!(report.batch_size, 10);
    }

    #[test]
    fn electrons_remain_the_hardest_species() {
        let proxy = MultiSpeciesProxy::future_xgc(VelocityGrid::small(10, 9), 2, 3);
        let mut state = proxy.initial_state(7);
        let report = proxy.run_picard(&mut state, &DeviceSpec::v100()).unwrap();
        let first = &report.linear_iters[0];
        let electron = first.last().unwrap().max;
        for ion in &first[..3] {
            assert!(electron > ion.max, "electron {electron} vs ion {}", ion.max);
        }
    }

    #[test]
    fn species_count_multiplies_the_batch_not_the_iterations() {
        // More species = bigger batch at roughly the same per-system
        // iteration counts — the GPU-saturation argument.
        let small = MultiSpeciesProxy::future_xgc(VelocityGrid::small(8, 7), 2, 1);
        let big = MultiSpeciesProxy::future_xgc(VelocityGrid::small(8, 7), 2, 8);
        let dev = DeviceSpec::a100();
        let mut s1 = small.initial_state(5);
        let r1 = small.run_picard(&mut s1, &dev).unwrap();
        let mut s2 = big.initial_state(5);
        let r2 = big.run_picard(&mut s2, &dev).unwrap();
        assert_eq!(r2.batch_size, 18);
        assert_eq!(r1.batch_size, 4);
        // First-ion iteration counts comparable across configurations.
        let i1 = r1.linear_iters[0][0].max as f64;
        let i2 = r2.linear_iters[0][0].max as f64;
        assert!((i1 - i2).abs() <= i1.max(i2) * 0.5 + 2.0);
    }
}
