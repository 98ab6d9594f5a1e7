//! Conservative flux-form assembly of the collision matrix.
//!
//! The proxy operator is a drift–diffusion Fokker–Planck model in 2-D
//! velocity space:
//!
//! ```text
//! C[f] = ∇ · F,   F = D (∇f + (v − u)/T · f) + D_cross ∇f
//! ```
//!
//! * The drag term `(v − u)/T` pulls the distribution toward a drifting
//!   Maxwellian with the moments of the current Picard iterate — this is
//!   the nonlinearity (the coefficients are re-assembled from `f` every
//!   Picard iteration, standing in for the Rosenbluth potentials).
//! * The cross-diffusion (`D_cross`, controlled by `Species::aniso`)
//!   models pitch-angle scattering and produces the **corner entries**
//!   of the paper's nine-point stencil plus part of the nonsymmetry.
//! * Fluxes are assembled per face with zero boundary flux, so the
//!   discrete operator conserves particles **exactly** (the weighted
//!   column sums of `I − dt·C` equal the weights) — the property behind
//!   the paper's "conservation to 1e-7 needs tolerance 1e-10" result.
//!
//! The backward Euler matrix is `A = I − dt·C` with `dt·ν` folded into
//! the species' diffusion strength.

use std::fmt;

use batsolv_formats::{BatchEll, BatchMatrix, SparsityPattern};

use crate::grid::VelocityGrid;
use crate::moments::Moments;
use crate::species::Species;

/// Assemble the backward Euler collision matrix `A = I − dt·C[moments]`
/// for one mesh node into `values` (CSR order of `pattern`).
///
/// `pattern` must be the grid's nine-point stencil pattern. This is the
/// reference assembly: it looks up every contribution's entry with a
/// binary search. [`ScatterPlan`] computes the same bits with the
/// lookups recorded once per grid.
pub fn assemble_matrix(
    grid: &VelocityGrid,
    species: &Species,
    moments: &Moments,
    pattern: &SparsityPattern,
    values: &mut [f64],
) {
    debug_assert_eq!(values.len(), pattern.nnz());
    debug_assert_eq!(pattern.num_rows(), grid.num_nodes());
    values.iter_mut().for_each(|v| *v = 0.0);
    walk(grid, species, moments, &mut Lookup { pattern, values });
}

/// Where the face walk sends each contribution.
trait Scatter {
    /// `A[row, col] += v`.
    fn add(&mut self, row: usize, col: usize, v: f64);
    /// A stencil contribution the walk leaves out because its
    /// cross-diffusion coefficient is exactly zero.
    fn skip(&mut self, row: usize, col: usize);
}

/// The discretisation: every contribution to `A = I − dt·C[moments]`,
/// in the order that fixes how each entry's sum rounds.
fn walk(grid: &VelocityGrid, species: &Species, moments: &Moments, out: &mut impl Scatter) {
    let (hx, hy) = (grid.h_par(), grid.h_perp());
    let t = moments.temperature;
    let u = moments.mean_velocity;
    // Diffusion strength with dt·ν folded in; scales with the local
    // temperature like the Rosenbluth-potential coefficients.
    let d0 = species.dt_nu * t;

    // Identity part.
    for r in 0..grid.num_nodes() {
        out.add(r, r, 1.0);
    }

    // --- x-faces (between (i,j) and (i+1,j)) ---
    for j in 0..grid.n_perp {
        for i in 0..grid.n_par - 1 {
            let left = grid.node(i, j);
            let right = grid.node(i + 1, j);
            let vx_face = 0.5 * (grid.v_par(i) + grid.v_par(i + 1));
            let vy = grid.v_perp(j);
            let dxx = d0;
            let drag = (vx_face - u) / t;
            // Full tensor flux with matching drags, so the Maxwellian
            // annihilates every bracket (equilibrium-preserving):
            // F = dxx (∂x f + (vx−u)/T f) + dxy (∂y f + vy/T f).
            let drag_y = vy / t;
            // Divergence: +F/hx into `left`, −F/hx into `right`.
            face(
                out,
                left,
                right,
                hx,
                &[
                    (right, dxx / hx + dxx * drag * 0.5),
                    (left, -dxx / hx + dxx * drag * 0.5),
                ],
            );
            if j > 0 && j + 1 < grid.n_perp {
                // Cross-diffusion varies over the grid and changes sign
                // with the quadrant — the source of strong nonsymmetry.
                let dxy = species.aniso * d0 * vx_face * vy / (vx_face * vx_face + vy * vy + t);
                let q = dxy / (4.0 * hy);
                cross_face(
                    out,
                    dxy,
                    left,
                    right,
                    hx,
                    &[
                        (grid.node(i, j + 1), q),
                        (grid.node(i + 1, j + 1), q),
                        (grid.node(i, j - 1), -q),
                        (grid.node(i + 1, j - 1), -q),
                        // Matching cross drag on the face average of f.
                        (left, dxy * drag_y * 0.5),
                        (right, dxy * drag_y * 0.5),
                    ],
                );
            }
        }
    }

    // --- y-faces (between (i,j) and (i,j+1)) ---
    for j in 0..grid.n_perp - 1 {
        for i in 0..grid.n_par {
            let bot = grid.node(i, j);
            let top = grid.node(i, j + 1);
            let vx = grid.v_par(i);
            let vy_face = 0.5 * (grid.v_perp(j) + grid.v_perp(j + 1));
            let dyy = d0;
            let drag = vy_face / t; // perpendicular drag pulls toward v⊥ = 0
            let drag_x = (vx - u) / t;
            face(
                out,
                bot,
                top,
                hy,
                &[
                    (top, dyy / hy + dyy * drag * 0.5),
                    (bot, -dyy / hy + dyy * drag * 0.5),
                ],
            );
            if i > 0 && i + 1 < grid.n_par {
                let dyx = species.aniso * d0 * vx * vy_face / (vx * vx + vy_face * vy_face + t);
                let q = dyx / (4.0 * hx);
                cross_face(
                    out,
                    dyx,
                    bot,
                    top,
                    hy,
                    &[
                        (grid.node(i + 1, j), q),
                        (grid.node(i + 1, j + 1), q),
                        (grid.node(i - 1, j), -q),
                        (grid.node(i - 1, j + 1), -q),
                        // Matching cross drag: F_y's second bracket is
                        // dyx (∂x f + (vx−u)/T f).
                        (bot, dyx * drag_x * 0.5),
                        (top, dyx * drag_x * 0.5),
                    ],
                );
            }
        }
    }
}

/// One face's flux F = Σ v·f[c] over `terms`: its divergence adds +F/h
/// to row `a` and −F/h to row `b`. A −= dt·C, hence the minus sign on
/// every contribution. Each entry sums its contributions in face order,
/// then term order, which fixes how the sums round.
#[inline(always)]
fn face(out: &mut impl Scatter, a: usize, b: usize, h: f64, terms: &[(usize, f64)]) {
    for &(c, v) in terms {
        out.add(a, c, -(v / h));
        out.add(b, c, -(-v / h));
    }
}

/// A cross-diffusion face with coefficient `d`: skipped, contribution by
/// contribution, where `d` is exactly zero (e.g. at v∥ = 0).
#[inline(always)]
fn cross_face(out: &mut impl Scatter, d: f64, a: usize, b: usize, h: f64, terms: &[(usize, f64)]) {
    if d != 0.0 {
        face(out, a, b, h, terms);
    } else {
        for &(c, _) in terms {
            out.skip(a, c);
            out.skip(b, c);
        }
    }
}

/// Position of `(row, col)` in `pattern`'s value array.
fn position(pattern: &SparsityPattern, row: usize, col: usize) -> usize {
    pattern
        .find(row, col)
        .unwrap_or_else(|| panic!("assembly outside stencil: ({row}, {col})"))
}

/// The reference scatter: a binary search per contribution.
struct Lookup<'a> {
    pattern: &'a SparsityPattern,
    values: &'a mut [f64],
}

impl Scatter for Lookup<'_> {
    #[inline]
    fn add(&mut self, row: usize, col: usize, v: f64) {
        self.values[position(self.pattern, row, col)] += v;
    }

    #[inline]
    fn skip(&mut self, _: usize, _: usize) {}
}

/// Records the value slot of every contribution, skipped ones too, so
/// that one plan serves every species and every set of moments.
struct Record<F> {
    slot: F,
    slots: Vec<u32>,
}

impl<F: Fn(usize, usize) -> usize> Scatter for Record<F> {
    fn add(&mut self, row: usize, col: usize, _: f64) {
        let slot = (self.slot)(row, col);
        self.slots
            .push(u32::try_from(slot).expect("value slab fits u32 slots"));
    }

    fn skip(&mut self, row: usize, col: usize) {
        // A skipped contribution keeps its slot; the replay steps over it.
        self.add(row, col, 0.0);
    }
}

/// Replays a recording: the next contribution lands in the next slot.
struct Replay<'a> {
    slots: std::slice::Iter<'a, u32>,
    slab: &'a mut [f64],
}

impl Scatter for Replay<'_> {
    #[inline(always)]
    fn add(&mut self, _: usize, _: usize, v: f64) {
        let &k = self.slots.next().expect("walk matches its recording");
        self.slab[k as usize] += v;
    }

    #[inline(always)]
    fn skip(&mut self, _: usize, _: usize) {
        self.slots.next();
    }
}

/// The value slot of every contribution of the assembly, recorded once
/// per grid and value layout.
///
/// Which entry a contribution lands in depends only on the grid, never
/// on the species or the moments, so the binary search that
/// [`assemble_matrix`] pays per contribution is paid here once.
/// [`ScatterPlan::assemble`] then replays the same walk: each entry sums
/// the same terms in the same order and comes out bitwise equal to the
/// reference. A cross term whose coefficient is exactly zero keeps its
/// recorded slot and is skipped where the reference skips it.
#[derive(Clone)]
pub struct ScatterPlan {
    grid: VelocityGrid,
    slab_len: usize,
    slots: Vec<u32>,
}

impl ScatterPlan {
    /// Plan for CSR value arrays over `pattern`, the grid's stencil.
    pub fn csr(grid: &VelocityGrid, pattern: &SparsityPattern) -> Self {
        Self::record(grid, pattern, pattern.nnz(), |row, col| {
            position(pattern, row, col)
        })
    }

    /// Plan for the value slabs of `ell` (its pattern must be the grid's
    /// stencil), in the batch's own layout and width.
    pub fn ell(grid: &VelocityGrid, ell: &BatchEll<f64>) -> Self {
        let pattern = ell.pattern();
        let (n, width, layout) = (ell.dims().num_rows, ell.width(), ell.layout());
        Self::record(grid, pattern, width * n, |row, col| {
            let k = position(pattern, row, col) - pattern.row_range(row).0;
            layout.index(n, width, row, k)
        })
    }

    fn record(
        grid: &VelocityGrid,
        pattern: &SparsityPattern,
        slab_len: usize,
        slot: impl Fn(usize, usize) -> usize,
    ) -> Self {
        assert_eq!(
            pattern.num_rows(),
            grid.num_nodes(),
            "pattern rows vs grid nodes"
        );
        let mut rec = Record {
            slot,
            slots: Vec::new(),
        };
        // The recording keeps positions only; any species and moments
        // visit the same ones.
        let moments = Moments {
            density: 1.0,
            mean_velocity: 0.0,
            temperature: 1.0,
        };
        walk(grid, &Species::ion(), &moments, &mut rec);
        ScatterPlan {
            grid: *grid,
            slab_len,
            slots: rec.slots,
        }
    }

    /// Length of the value slab [`Self::assemble`] fills.
    pub fn slab_len(&self) -> usize {
        self.slab_len
    }

    /// Assemble `A = I − dt·C[moments]` for `species` into `slab`,
    /// bitwise equal to [`assemble_matrix`] in the plan's layout.
    ///
    /// # Panics
    /// If `slab` is not [`Self::slab_len`] long.
    pub fn assemble(&self, species: &Species, moments: &Moments, slab: &mut [f64]) {
        assert_eq!(slab.len(), self.slab_len, "value slab length");
        slab.fill(0.0);
        let mut out = Replay {
            slots: self.slots.iter(),
            slab,
        };
        walk(&self.grid, species, moments, &mut out);
        debug_assert!(out.slots.next().is_none(), "walk matches its recording");
    }
}

impl fmt::Debug for ScatterPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScatterPlan")
            .field("grid", &self.grid)
            .field("slab_len", &self.slab_len)
            .field("contributions", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsolv_formats::{BatchCsr, BatchDense, ValueLayout};
    use std::sync::Arc;

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Ion, electron, and a species without cross-diffusion, where the
    /// reference skips every cross term.
    fn species_cases() -> [Species; 3] {
        let isotropic = Species {
            name: "isotropic",
            aniso: 0.0,
            ..Species::electron()
        };
        [Species::ion(), Species::electron(), isotropic]
    }

    /// Typical moments, the temperature floor, zero drift and a NaN
    /// temperature.
    fn moment_cases() -> [Moments; 4] {
        let typical = Moments {
            density: 1.0,
            mean_velocity: 0.2,
            temperature: 1.0,
        };
        [
            typical,
            Moments {
                temperature: 1e-12,
                ..typical
            },
            Moments {
                mean_velocity: 0.0,
                ..typical
            },
            Moments {
                temperature: f64::NAN,
                ..typical
            },
        ]
    }

    /// Counts what the walk adds and what it skips.
    #[derive(Default)]
    struct Count {
        added: usize,
        skipped: usize,
    }

    impl Scatter for Count {
        fn add(&mut self, _: usize, _: usize, _: f64) {
            self.added += 1;
        }

        fn skip(&mut self, _: usize, _: usize) {
            self.skipped += 1;
        }
    }

    fn count(grid: &VelocityGrid, species: &Species) -> Count {
        let mut c = Count::default();
        walk(grid, species, &moment_cases()[0], &mut c);
        c
    }

    #[test]
    fn scatter_plans_match_the_reference_bitwise() {
        for grid in [
            VelocityGrid::xgc_standard(),
            VelocityGrid::small(9, 8),
            VelocityGrid::small(3, 3),
        ] {
            let pattern = Arc::new(grid.stencil_pattern());
            let csr_plan = ScatterPlan::csr(&grid, &pattern);
            let ells = [ValueLayout::ColMajor, ValueLayout::RowMajor].map(|layout| {
                let ell = BatchEll::<f64>::zeros_in(1, Arc::clone(&pattern), layout).unwrap();
                let plan = ScatterPlan::ell(&grid, &ell);
                (layout, plan)
            });
            for species in species_cases() {
                for moments in moment_cases() {
                    let case = format!("{grid:?} {} {moments:?}", species.name);
                    let mut reference = vec![0.0; pattern.nnz()];
                    assemble_matrix(&grid, &species, &moments, &pattern, &mut reference);
                    let mut planned = vec![f64::NAN; csr_plan.slab_len()];
                    csr_plan.assemble(&species, &moments, &mut planned);
                    assert_eq!(bits(&planned), bits(&reference), "CSR: {case}");

                    let csr =
                        BatchCsr::from_system_values(Arc::clone(&pattern), &[reference]).unwrap();
                    for (layout, plan) in &ells {
                        let expected = BatchEll::from_csr_in(&csr, *layout).unwrap();
                        let mut slab = vec![f64::NAN; plan.slab_len()];
                        plan.assemble(&species, &moments, &mut slab);
                        assert_eq!(
                            bits(&slab),
                            bits(expected.values_of(0)),
                            "ELL {layout:?}: {case}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn plans_record_every_cross_term_the_reference_may_skip() {
        // 32×31: the x-faces at v∥ = 0 (one per interior v⊥ row, 29 of
        // them) have a cross coefficient of exactly zero; each skips
        // 6 terms × 2 rows.
        let grid = VelocityGrid::xgc_standard();
        let ion = count(&grid, &Species::ion());
        assert_eq!(ion.skipped, 29 * 12);
        assert_eq!(ion.added + ion.skipped, 30_264);
        let pattern = grid.stencil_pattern();
        assert_eq!(ScatterPlan::csr(&grid, &pattern).slots.len(), 30_264);
        // Without cross-diffusion every cross term is skipped: 29 rows
        // of 31 x-faces and 30 rows of 30 y-faces, 12 terms each.
        let [_, _, isotropic] = species_cases();
        let none = count(&grid, &isotropic);
        assert_eq!(none.skipped, (29 * 31 + 30 * 30) * 12);
        assert_eq!(none.added + none.skipped, 30_264);
        // With 8 v∥ nodes no face or node sits exactly at v∥ = 0; an odd
        // v∥ count puts a column of y-faces there.
        let skipped =
            |n_par, n_perp| count(&VelocityGrid::small(n_par, n_perp), &Species::ion()).skipped;
        assert_eq!(skipped(8, 9), 0);
        assert_eq!(skipped(9, 8), 7 * 12);
        assert_eq!(skipped(3, 3), 2 * 12);
    }

    #[test]
    #[should_panic(expected = "value slab length")]
    fn scatter_plan_rejects_a_slab_of_the_wrong_length() {
        let grid = VelocityGrid::small(6, 5);
        let plan = ScatterPlan::csr(&grid, &grid.stencil_pattern());
        let mut slab = vec![0.0; plan.slab_len() + 1];
        plan.assemble(&Species::ion(), &moment_cases()[0], &mut slab);
    }

    fn assembled(species: &Species, grid: &VelocityGrid) -> BatchCsr<f64> {
        let pattern = Arc::new(grid.stencil_pattern());
        let mut m = BatchCsr::zeros(1, pattern.clone()).unwrap();
        let moments = Moments {
            density: 1.0,
            mean_velocity: 0.2,
            temperature: 1.0,
        };
        let mut vals = vec![0.0; pattern.nnz()];
        assemble_matrix(grid, species, &moments, &pattern, &mut vals);
        m.values_of_mut(0).copy_from_slice(&vals);
        m
    }

    #[test]
    fn column_sums_equal_one_exactly() {
        // Particle conservation: with uniform weights, every column of
        // A = I − dt·C sums to exactly 1 (fluxes telescope).
        let grid = VelocityGrid::small(8, 7);
        for species in Species::xgc_pair() {
            let m = assembled(&species, &grid);
            let n = grid.num_nodes();
            for c in 0..n {
                let mut sum = 0.0;
                for r in 0..n {
                    sum += m.get(0, r, c);
                }
                assert!(
                    (sum - 1.0).abs() < 1e-12,
                    "{}: column {c} sums to {sum}",
                    species.name
                );
            }
        }
    }

    #[test]
    fn matrix_is_nonsymmetric() {
        let grid = VelocityGrid::small(8, 7);
        let m = assembled(&Species::electron(), &grid);
        let mut asym = 0.0f64;
        let mut scale = 0.0f64;
        for r in 0..grid.num_nodes() {
            for c in 0..grid.num_nodes() {
                asym = asym.max((m.get(0, r, c) - m.get(0, c, r)).abs());
                scale = scale.max(m.get(0, r, c).abs());
            }
        }
        assert!(asym > 1e-3 * scale, "asymmetry {asym} vs scale {scale}");
    }

    #[test]
    fn corner_entries_are_populated() {
        // The cross-diffusion must actually use the 9-point corners.
        let grid = VelocityGrid::small(8, 7);
        let m = assembled(&Species::electron(), &grid);
        let (i, j) = (4, 3);
        let r = grid.node(i, j);
        let corner = grid.node(i + 1, j + 1);
        assert!(m.get(0, r, corner).abs() > 1e-10, "corner entry is zero");
    }

    #[test]
    fn maxwellian_is_near_equilibrium() {
        // C[f_M] ≈ 0 when f_M has the moments used for assembly, so
        // A f_M ≈ f_M (up to discretization error of the drift terms).
        let grid = VelocityGrid::small(24, 23);
        let pattern = Arc::new(grid.stencil_pattern());
        let f = grid.maxwellian(1.0, 0.0, 1.0);
        let moments = Moments::compute(&grid, &f);
        let mut vals = vec![0.0; pattern.nnz()];
        let species = Species::electron();
        assemble_matrix(&grid, &species, &moments, &pattern, &mut vals);
        let mut m = BatchCsr::<f64>::zeros(1, pattern.clone()).unwrap();
        m.values_of_mut(0).copy_from_slice(&vals);
        let mut af = vec![0.0; grid.num_nodes()];
        m.spmv_system(0, &f, &mut af);
        let fmax = f.iter().cloned().fold(0.0f64, f64::max);
        let err = f
            .iter()
            .zip(af.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        // Drift-term discretization is O(h²); the equilibrium residual
        // must be small relative to the peak times the collision
        // strength (~10% at this grid resolution).
        assert!(
            err < 0.12 * fmax * species.dt_nu,
            "equilibrium residual {err} vs peak {fmax}"
        );
    }

    #[test]
    fn ion_matrix_is_closer_to_identity_than_electron() {
        let grid = VelocityGrid::small(8, 7);
        let ion = assembled(&Species::ion(), &grid);
        let ele = assembled(&Species::electron(), &grid);
        let dev = |m: &BatchCsr<f64>| -> f64 {
            let d = BatchDense::from_csr(m);
            let n = grid.num_nodes();
            let mut s = 0.0f64;
            for r in 0..n {
                for c in 0..n {
                    let idv = if r == c { 1.0 } else { 0.0 };
                    s = s.max((d.at(0, r, c) - idv).abs());
                }
            }
            s
        };
        assert!(
            dev(&ion) * 10.0 < dev(&ele),
            "ion {} electron {}",
            dev(&ion),
            dev(&ele)
        );
    }

    #[test]
    fn equilibrium_residual_converges_at_second_order() {
        // The flux-form discretization is O(h²): halving the mesh spacing
        // must cut the Maxwellian equilibrium residual by ~4x.
        let residual_on = |nx: usize, ny: usize| -> f64 {
            let grid = VelocityGrid::small(nx, ny);
            let pattern = Arc::new(grid.stencil_pattern());
            let f = grid.maxwellian(1.0, 0.0, 1.0);
            let moments = Moments::compute(&grid, &f);
            let mut vals = vec![0.0; pattern.nnz()];
            let species = Species::electron();
            assemble_matrix(&grid, &species, &moments, &pattern, &mut vals);
            let mut m = BatchCsr::<f64>::zeros(1, pattern.clone()).unwrap();
            m.values_of_mut(0).copy_from_slice(&vals);
            let n = grid.num_nodes();
            let mut af = vec![0.0; n];
            m.spmv_system(0, &f, &mut af);
            // (A f - f) is -dt·C f; normalize by the peak and dt·nu so
            // grids are comparable. Measure interior rows only: the
            // zero-flux boundary rows divide an O(h²) flux defect by h,
            // reducing the max-norm order there (standard edge effect).
            let fmax = f.iter().cloned().fold(0.0f64, f64::max);
            let mut worst = 0.0f64;
            for j in 2..grid.n_perp - 2 {
                for i in 2..grid.n_par - 2 {
                    let r = grid.node(i, j);
                    worst = worst.max((f[r] - af[r]).abs());
                }
            }
            worst / (fmax * species.dt_nu)
        };
        let coarse = residual_on(24, 22);
        let fine = residual_on(48, 44);
        let ratio = coarse / fine;
        // Asymptotically 4x; the Gaussian-tail truncation at v_max keeps
        // the measured ratio slightly below that at these resolutions.
        assert!(
            ratio > 2.6 && ratio < 6.0,
            "expected ~4x (second order), got {ratio:.2} ({coarse:.3e} -> {fine:.3e})"
        );
    }

    #[test]
    fn diagonal_is_positive_and_dominant_enough() {
        let grid = VelocityGrid::xgc_standard();
        for species in Species::xgc_pair() {
            let m = assembled(&species, &grid);
            let mut diag = vec![0.0; grid.num_nodes()];
            m.extract_diagonal(0, &mut diag);
            assert!(diag.iter().all(|&d| d > 0.0), "{}", species.name);
        }
    }
}
