//! Backward Euler + Picard nonlinear solve over a batch of mesh nodes.
//!
//! The proxy app's structure (paper Section II.A): at every spatial mesh
//! node, the two-species collision operator is integrated implicitly;
//! the nonlinearity (operator coefficients depending on the moments of
//! the unknown) is resolved with a Picard loop that "typically requires
//! five iterations". The linear solves inside the loop are the batched
//! systems this whole library exists for — one matrix per (mesh node,
//! species), all sharing the nine-point pattern.

use std::sync::{Arc, OnceLock};

use batsolv_formats::{
    BatchBanded, BatchCsr, BatchEll, BatchVectors, EllIndex, SparsityPattern, ValueLayout,
};
use batsolv_gpusim::{run_batch_mut, DeviceSpec};
use batsolv_solvers::direct::{BatchBandedLu, BatchSparseQr};
use batsolv_solvers::{AbsResidual, BatchBicgstab, BatchSolveReport, Jacobi};
use batsolv_types::{BatchDims, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::grid::VelocityGrid;
use crate::moments::Moments;
use crate::operator_assembly::ScatterPlan;
use crate::species::Species;

/// Which linear solver + format the Picard loop uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// Batched BiCGSTAB + Jacobi on `BatchCsr`.
    BicgstabCsr,
    /// Batched BiCGSTAB + Jacobi on `BatchEll` (the paper's winner).
    BicgstabEll,
    /// LAPACK-style banded LU (`dgbsv`) — the CPU baseline.
    Dgbsv,
    /// Givens sparse QR — the cuSolver baseline.
    SparseQr,
}

impl SolverKind {
    /// Display name used in reports and CSV output.
    pub fn name(&self) -> &'static str {
        match self {
            SolverKind::BicgstabCsr => "bicgstab-csr",
            SolverKind::BicgstabEll => "bicgstab-ell",
            SolverKind::Dgbsv => "dgbsv",
            SolverKind::SparseQr => "sparse-qr",
        }
    }
}

/// Distribution functions of both species over all mesh nodes.
#[derive(Clone, Debug)]
pub struct ProxyState {
    /// `f[s]` holds species `s`'s distribution, one system per mesh node.
    pub f: [BatchVectors<f64>; 2],
}

/// Per-species iteration statistics of one linear solve.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IterStats {
    /// Largest per-system iteration count.
    pub max: u32,
    /// Mean per-system iteration count.
    pub mean: f64,
}

/// Record of one Picard iteration.
#[derive(Clone, Debug)]
pub struct PicardIterRecord {
    /// Linear-solver iterations per species (`[ion, electron]`) —
    /// the rows of the paper's Table III.
    pub linear_iters: [IterStats; 2],
    /// Simulated time of the combined batched solve, seconds.
    pub solve_time_s: f64,
    /// Max-norm Picard increment per species (`‖f_{k+1} − f_k‖∞`).
    pub increment: [f64; 2],
}

/// Result of a full Picard solve (one implicit time step).
#[derive(Clone, Debug)]
pub struct PicardReport {
    /// One record per Picard iteration.
    pub iterations: Vec<PicardIterRecord>,
    /// Relative density drift per species over the step.
    pub density_drift: [f64; 2],
    /// Relative energy drift per species over the step.
    pub energy_drift: [f64; 2],
    /// Sum of simulated solve times, seconds.
    pub total_solve_time_s: f64,
    /// Solver used.
    pub solver: SolverKind,
}

impl PicardReport {
    /// Table III shape check: iteration counts per species per Picard
    /// iteration, `[ [ion...], [electron...] ]`.
    pub fn iteration_table(&self) -> [Vec<u32>; 2] {
        let mut out = [vec![], vec![]];
        for rec in &self.iterations {
            out[0].push(rec.linear_iters[0].max);
            out[1].push(rec.linear_iters[1].max);
        }
        out
    }
}

/// The proxy app: grid, species pair, Picard configuration.
#[derive(Clone, Debug)]
pub struct CollisionProxy {
    /// Velocity grid shared by both species (in species-normalized units).
    pub grid: VelocityGrid,
    /// `[ion, electron]`.
    pub species: [Species; 2],
    /// Picard iterations per time step (the paper: typically 5).
    pub picard_iterations: usize,
    /// Linear solver absolute tolerance (the paper: 1e-10).
    pub tolerance: f64,
    /// Number of spatial mesh nodes in the batch.
    pub num_mesh_nodes: usize,
    shared_pattern: Arc<SparsityPattern>,
    /// The pattern's column-major ELL index and the scatter plans into
    /// CSR values and into ELL slabs, each built on first use (a proxy
    /// that never assembles never pays for one).
    ell_index: OnceLock<Arc<EllIndex>>,
    csr_plan: OnceLock<ScatterPlan>,
    ell_plan: OnceLock<ScatterPlan>,
}

impl CollisionProxy {
    /// Proxy over `num_mesh_nodes` spatial nodes on the given grid.
    pub fn new(grid: VelocityGrid, num_mesh_nodes: usize) -> Self {
        let shared_pattern = Arc::new(grid.stencil_pattern());
        CollisionProxy {
            grid,
            species: Species::xgc_pair(),
            picard_iterations: 5,
            tolerance: 1e-10,
            num_mesh_nodes,
            shared_pattern,
            ell_index: OnceLock::new(),
            csr_plan: OnceLock::new(),
            ell_plan: OnceLock::new(),
        }
    }

    /// Override the linear tolerance (the conservation experiment).
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// The shared nine-point pattern.
    pub fn pattern(&self) -> &Arc<SparsityPattern> {
        &self.shared_pattern
    }

    /// The shared pattern's column-major ELL index, which every step's
    /// batch is built on.
    fn ell_index(&self) -> &Arc<EllIndex> {
        self.ell_index.get_or_init(|| {
            let pattern = Arc::clone(&self.shared_pattern);
            Arc::new(EllIndex::new(pattern, ValueLayout::ColMajor))
        })
    }

    /// Initial state: per-node perturbed Maxwellians plus a
    /// non-equilibrium bump that the collision operator relaxes away.
    pub fn initial_state(&self, seed: u64) -> ProxyState {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims =
            BatchDims::new(self.num_mesh_nodes, self.grid.num_nodes()).expect("valid proxy dims");
        let make = |rng: &mut StdRng, grid: &VelocityGrid| {
            let mut v = BatchVectors::zeros(dims);
            for node in 0..self.num_mesh_nodes {
                let n0: f64 = 0.8 + 0.4 * rng.gen::<f64>();
                let u0: f64 = -0.3 + 0.6 * rng.gen::<f64>();
                let t0: f64 = 0.85 + 0.3 * rng.gen::<f64>();
                let main = grid.maxwellian(n0, u0, t0);
                // Beam-like bump: the non-equilibrium feature collisions
                // relax (drives the Picard nonlinearity).
                let bump = grid.maxwellian(0.25 * n0, u0 + 1.2, 0.4 * t0);
                let dst = v.system_mut(node);
                for k in 0..dst.len() {
                    dst[k] = main[k] + bump[k];
                }
            }
            v
        };
        ProxyState {
            f: [make(&mut rng, &self.grid), make(&mut rng, &self.grid)],
        }
    }

    /// Assemble the combined, **interleaved** ion/electron batch from the
    /// current Picard iterate: entry `2k` is mesh node `k`'s ion matrix,
    /// entry `2k+1` its electron matrix (equal counts, like the paper's
    /// evaluation batches).
    ///
    /// The systems are independent, so they are assembled in parallel,
    /// each straight into its own value slab of the batch.
    pub fn assemble_combined(&self, iterate: &ProxyState) -> Result<BatchCsr<f64>> {
        let mut m = BatchCsr::zeros(2 * self.num_mesh_nodes, Arc::clone(&self.shared_pattern))?;
        let plan = self
            .csr_plan
            .get_or_init(|| ScatterPlan::csr(&self.grid, &self.shared_pattern));
        self.assemble_into(plan, iterate, m.systems_mut().collect());
        Ok(m)
    }

    /// [`Self::assemble_combined`] straight into the value slabs of a
    /// column-major ELL batch over the shared pattern.
    fn assemble_combined_ell(&self, iterate: &ProxyState, ell: &mut BatchEll<f64>) {
        let plan = self
            .ell_plan
            .get_or_init(|| ScatterPlan::ell(&self.grid, ell));
        self.assemble_into(plan, iterate, ell.systems_mut().collect());
    }

    /// Assemble the interleaved batch into `slabs` through `plan`, one
    /// system per block.
    fn assemble_into(&self, plan: &ScatterPlan, iterate: &ProxyState, slabs: Vec<&mut [f64]>) {
        run_batch_mut(slabs, |k, slab| {
            let (node, s) = (k / 2, k % 2);
            let moments = Moments::compute(&self.grid, iterate.f[s].system(node));
            plan.assemble(&self.species[s], &moments, slab);
        });
    }

    /// Interleave the two species' distributions into one combined batch
    /// (the right-hand side layout matching [`Self::assemble_combined`]).
    pub fn interleave(&self, state: &ProxyState) -> BatchVectors<f64> {
        let dims = BatchDims::new(2 * self.num_mesh_nodes, self.grid.num_nodes())
            .expect("valid combined dims");
        let mut v = BatchVectors::zeros(dims);
        for node in 0..self.num_mesh_nodes {
            for s in 0..2 {
                v.system_mut(2 * node + s)
                    .copy_from_slice(state.f[s].system(node));
            }
        }
        v
    }

    /// Inverse of [`Self::interleave`].
    pub fn deinterleave(&self, combined: &BatchVectors<f64>) -> ProxyState {
        let dims =
            BatchDims::new(self.num_mesh_nodes, self.grid.num_nodes()).expect("valid proxy dims");
        let mut f = [BatchVectors::zeros(dims), BatchVectors::zeros(dims)];
        for node in 0..self.num_mesh_nodes {
            for (s, fs) in f.iter_mut().enumerate() {
                fs.system_mut(node)
                    .copy_from_slice(combined.system(2 * node + s));
            }
        }
        ProxyState { f }
    }

    /// Run one implicit time step: `picard_iterations` Picard sweeps,
    /// each assembling the combined batch from the current iterate and
    /// solving it with `solver` on `device`. With `warm_start`, each
    /// linear solve starts from the previous Picard iterate (the paper's
    /// Figure 8 / Table III configuration); otherwise from zero.
    pub fn run_picard(
        &self,
        state: &mut ProxyState,
        device: &DeviceSpec,
        solver: SolverKind,
        warm_start: bool,
    ) -> Result<PicardReport> {
        let f_n = self.interleave(state); // old time level = RHS every sweep
        let m0 = [
            species_moments(&self.grid, &state.f[0]),
            species_moments(&self.grid, &state.f[1]),
        ];

        let mut iterate = state.clone();
        let mut records = Vec::with_capacity(self.picard_iterations);
        let mut total_time = 0.0;
        // BicgstabEll's sweeps all assemble into this one batch.
        let mut ell = None;
        for _ in 0..self.picard_iterations {
            let mut x = if warm_start {
                self.interleave(&iterate)
            } else {
                BatchVectors::zeros(f_n.dims())
            };
            let report = self.sweep_solve(device, solver, &iterate, &mut ell, &f_n, &mut x)?;
            total_time += report.time_s();
            let new_state = self.deinterleave(&x);
            let increment = [
                max_increment(&iterate.f[0], &new_state.f[0]),
                max_increment(&iterate.f[1], &new_state.f[1]),
            ];
            records.push(PicardIterRecord {
                linear_iters: split_iters(&report, self.num_mesh_nodes),
                solve_time_s: report.time_s(),
                increment,
            });
            iterate = new_state;
        }

        let m1 = [
            species_moments(&self.grid, &iterate.f[0]),
            species_moments(&self.grid, &iterate.f[1]),
        ];
        *state = iterate;
        Ok(PicardReport {
            iterations: records,
            density_drift: [m1[0].density_drift(&m0[0]), m1[1].density_drift(&m0[1])],
            energy_drift: [m1[0].energy_drift(&m0[0]), m1[1].energy_drift(&m0[1])],
            total_solve_time_s: total_time,
            solver,
        })
    }

    /// One sweep's batch, assembled from `iterate` and solved with
    /// `solver`. `BicgstabEll` fills `ell` in place, allocating its values
    /// on the proxy's ELL index on the first sweep; the other solvers
    /// assemble a fresh CSR batch.
    fn sweep_solve(
        &self,
        device: &DeviceSpec,
        solver: SolverKind,
        iterate: &ProxyState,
        ell: &mut Option<BatchEll<f64>>,
        rhs: &BatchVectors<f64>,
        x: &mut BatchVectors<f64>,
    ) -> Result<BatchSolveReport> {
        let bicgstab = BatchBicgstab::new(Jacobi, AbsResidual::new(self.tolerance));
        match solver {
            SolverKind::BicgstabEll => {
                let ell = match ell {
                    Some(ell) => ell,
                    None => ell.insert(BatchEll::zeros_on(
                        2 * self.num_mesh_nodes,
                        Arc::clone(self.ell_index()),
                    )?),
                };
                self.assemble_combined_ell(iterate, ell);
                bicgstab.solve(device, ell, rhs, x)
            }
            SolverKind::BicgstabCsr => {
                bicgstab.solve(device, &self.assemble_combined(iterate)?, rhs, x)
            }
            SolverKind::Dgbsv => {
                let banded = BatchBanded::from_csr(&self.assemble_combined(iterate)?)?;
                BatchBandedLu.solve(device, &banded, rhs, x)
            }
            SolverKind::SparseQr => {
                let banded = BatchBanded::from_csr(&self.assemble_combined(iterate)?)?;
                BatchSparseQr.solve(device, &banded, rhs, x)
            }
        }
    }
}

/// Aggregate moments of a whole species batch (summed over mesh nodes).
fn species_moments(grid: &VelocityGrid, f: &BatchVectors<f64>) -> Moments {
    let mut density = 0.0;
    let mut momentum = 0.0;
    let mut energy = 0.0;
    for node in 0..f.dims().num_systems {
        let m = Moments::compute(grid, f.system(node));
        density += m.density;
        momentum += m.density * m.mean_velocity;
        energy += m.density * m.temperature;
    }
    if density == 0.0 {
        return Moments {
            density,
            mean_velocity: 0.0,
            temperature: 1.0,
        };
    }
    Moments {
        density,
        mean_velocity: momentum / density,
        temperature: energy / density,
    }
}

fn max_increment(a: &BatchVectors<f64>, b: &BatchVectors<f64>) -> f64 {
    a.values()
        .iter()
        .zip(b.values().iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
}

/// Split a combined interleaved report into per-species stats.
fn split_iters(report: &BatchSolveReport, num_mesh_nodes: usize) -> [IterStats; 2] {
    let mut out = [IterStats::default(), IterStats::default()];
    for (s, stats) in out.iter_mut().enumerate() {
        let mut max = 0u32;
        let mut sum = 0u64;
        for node in 0..num_mesh_nodes {
            let it = report.per_system[2 * node + s].iterations;
            max = max.max(it);
            sum += it as u64;
        }
        stats.max = max;
        stats.mean = sum as f64 / num_mesh_nodes as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_proxy(nodes: usize) -> CollisionProxy {
        CollisionProxy::new(VelocityGrid::small(10, 9), nodes)
    }

    #[test]
    fn interleave_roundtrip() {
        let proxy = small_proxy(3);
        let state = proxy.initial_state(7);
        let combined = proxy.interleave(&state);
        let back = proxy.deinterleave(&combined);
        for s in 0..2 {
            assert_eq!(state.f[s], back.f[s]);
        }
    }

    #[test]
    fn picard_increments_shrink() {
        // The Picard iteration converges: increments decrease.
        let proxy = small_proxy(2);
        let mut state = proxy.initial_state(3);
        let report = proxy
            .run_picard(
                &mut state,
                &DeviceSpec::v100(),
                SolverKind::BicgstabEll,
                true,
            )
            .unwrap();
        let inc: Vec<f64> = report.iterations.iter().map(|r| r.increment[1]).collect();
        assert!(
            inc.windows(2).all(|w| w[1] < w[0] * 1.01),
            "increments {inc:?}"
        );
        assert!(inc.last().unwrap() < &(0.3 * inc[0]), "increments {inc:?}");
    }

    #[test]
    fn warm_start_reduces_later_iteration_counts() {
        // The Table III effect: with warm starts, later Picard sweeps
        // need fewer linear iterations than the first.
        let proxy = small_proxy(2);
        let mut state = proxy.initial_state(11);
        let report = proxy
            .run_picard(
                &mut state,
                &DeviceSpec::v100(),
                SolverKind::BicgstabEll,
                true,
            )
            .unwrap();
        let [ion, ele] = report.iteration_table();
        assert!(
            *ele.last().unwrap() < ele[0],
            "electron iterations should drop: {ele:?}"
        );
        assert!(ion[0] <= ele[0], "ion {ion:?} vs electron {ele:?}");
    }

    #[test]
    fn electrons_need_more_iterations_than_ions() {
        let proxy = small_proxy(2);
        let mut state = proxy.initial_state(5);
        let report = proxy
            .run_picard(
                &mut state,
                &DeviceSpec::v100(),
                SolverKind::BicgstabEll,
                false,
            )
            .unwrap();
        for rec in &report.iterations {
            assert!(
                rec.linear_iters[1].max > rec.linear_iters[0].max,
                "electron {:?} vs ion {:?}",
                rec.linear_iters[1],
                rec.linear_iters[0]
            );
        }
    }

    #[test]
    fn density_is_conserved_to_solver_tolerance() {
        // The paper's conservation result: tolerance 1e-10 keeps the
        // conserved quantities within ~1e-7.
        let proxy = small_proxy(2);
        let mut state = proxy.initial_state(9);
        let report = proxy
            .run_picard(
                &mut state,
                &DeviceSpec::v100(),
                SolverKind::BicgstabEll,
                true,
            )
            .unwrap();
        assert!(
            report.density_drift[0] < 1e-7 && report.density_drift[1] < 1e-7,
            "density drift {:?}",
            report.density_drift
        );
    }

    #[test]
    fn loose_tolerance_breaks_conservation() {
        let proxy = small_proxy(2).with_tolerance(1e-3);
        let mut state = proxy.initial_state(9);
        let loose = proxy
            .run_picard(
                &mut state,
                &DeviceSpec::v100(),
                SolverKind::BicgstabEll,
                true,
            )
            .unwrap();
        let tight_proxy = small_proxy(2);
        let mut state2 = tight_proxy.initial_state(9);
        let tight = tight_proxy
            .run_picard(
                &mut state2,
                &DeviceSpec::v100(),
                SolverKind::BicgstabEll,
                true,
            )
            .unwrap();
        assert!(
            loose.density_drift[1] > 10.0 * tight.density_drift[1].max(1e-16),
            "loose {:?} vs tight {:?}",
            loose.density_drift,
            tight.density_drift
        );
    }

    #[test]
    fn direct_solver_gives_same_solution_as_iterative() {
        let proxy = small_proxy(1);
        let mut s1 = proxy.initial_state(13);
        let mut s2 = proxy.initial_state(13);
        let dev_cpu = DeviceSpec::skylake_node();
        let dev_gpu = DeviceSpec::v100();
        proxy
            .run_picard(&mut s1, &dev_cpu, SolverKind::Dgbsv, false)
            .unwrap();
        proxy
            .run_picard(&mut s2, &dev_gpu, SolverKind::BicgstabEll, false)
            .unwrap();
        let diff = max_increment(&s1.f[1], &s2.f[1]);
        let scale = s1.f[1].values().iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(diff < 1e-7 * scale.max(1.0), "solutions differ by {diff}");
    }
}
