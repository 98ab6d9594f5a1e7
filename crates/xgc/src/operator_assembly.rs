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

use batsolv_formats::SparsityPattern;

use crate::grid::VelocityGrid;
use crate::moments::Moments;
use crate::species::Species;

/// Assemble the backward Euler collision matrix `A = I − dt·C[moments]`
/// for one mesh node into `values` (CSR order of `pattern`).
///
/// `pattern` must be the grid's nine-point stencil pattern.
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

    let (hx, hy) = (grid.h_par(), grid.h_perp());
    let t = moments.temperature;
    let u = moments.mean_velocity;
    // Diffusion strength with dt·ν folded in; scales with the local
    // temperature like the Rosenbluth-potential coefficients.
    let d0 = species.dt_nu * t;

    // Identity part.
    for r in 0..grid.num_nodes() {
        add(pattern, values, r, r, 1.0);
    }

    // One face's flux F = Σ v·f[c] over `terms`: its divergence adds
    // +F/h to row `a` and −F/h to row `b`. A −= dt·C, hence the minus
    // sign on every contribution. Each entry sums its contributions in
    // face order, then term order, which fixes how the sums round.
    let mut face = |a: usize, b: usize, h: f64, terms: &[(usize, f64)]| {
        for &(c, v) in terms {
            add(pattern, values, a, c, -(v / h));
            add(pattern, values, b, c, -(-v / h));
        }
    };

    // --- x-faces (between (i,j) and (i+1,j)) ---
    for j in 0..grid.n_perp {
        for i in 0..grid.n_par - 1 {
            let left = grid.node(i, j);
            let right = grid.node(i + 1, j);
            let vx_face = 0.5 * (grid.v_par(i) + grid.v_par(i + 1));
            let vy = grid.v_perp(j);
            let dxx = d0;
            // Cross-diffusion varies over the grid and changes sign with
            // the quadrant — the source of strong nonsymmetry.
            let dxy = if j > 0 && j + 1 < grid.n_perp {
                species.aniso * d0 * vx_face * vy / (vx_face * vx_face + vy * vy + t)
            } else {
                0.0
            };
            let drag = (vx_face - u) / t;
            // Full tensor flux with matching drags, so the Maxwellian
            // annihilates every bracket (equilibrium-preserving):
            // F = dxx (∂x f + (vx−u)/T f) + dxy (∂y f + vy/T f).
            let drag_y = vy / t;
            // Divergence: +F/hx into `left`, −F/hx into `right`.
            face(
                left,
                right,
                hx,
                &[
                    (right, dxx / hx + dxx * drag * 0.5),
                    (left, -dxx / hx + dxx * drag * 0.5),
                ],
            );
            if dxy != 0.0 {
                let q = dxy / (4.0 * hy);
                face(
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
            let dyx = if i > 0 && i + 1 < grid.n_par {
                species.aniso * d0 * vx * vy_face / (vx * vx + vy_face * vy_face + t)
            } else {
                0.0
            };
            let drag = vy_face / t; // perpendicular drag pulls toward v⊥ = 0
            let drag_x = (vx - u) / t;
            face(
                bot,
                top,
                hy,
                &[
                    (top, dyy / hy + dyy * drag * 0.5),
                    (bot, -dyy / hy + dyy * drag * 0.5),
                ],
            );
            if dyx != 0.0 {
                let q = dyx / (4.0 * hx);
                face(
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

#[inline]
fn add(pattern: &SparsityPattern, values: &mut [f64], row: usize, col: usize, v: f64) {
    let k = pattern
        .find(row, col)
        .unwrap_or_else(|| panic!("assembly outside stencil: ({row}, {col})"));
    values[k] += v;
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsolv_formats::{BatchCsr, BatchDense, BatchMatrix};
    use std::sync::Arc;

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
