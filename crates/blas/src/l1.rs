//! Level-1 dense kernels for one system of a batch.
//!
//! These are the "intermediate vector" operations of Algorithm 1 in the
//! paper (BiCGSTAB): dots, axpys, norms and elementwise scaling. On the
//! GPU they run warp-parallel within the system's thread block; here they
//! are straight loops that the compiler vectorizes, and the lane-activity
//! accounting lives in [`crate::counts`]. The fused multiply-add loops
//! (`dot`, hence `nrm2`, `dot_pair`, `axpy`, `axpby`) run with hardware FMA where
//! the CPU has it ([`fma_kernel!`]).

use batsolv_types::{fma_kernel, Scalar};

fma_kernel! {
    /// `x · y`.
    pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
        debug_assert_eq!(x.len(), y.len());
        let mut acc = T::ZERO;
        for (&a, &b) in x.iter().zip(y.iter()) {
            acc = a.mul_add(b, acc);
        }
        acc
    }
}

fma_kernel! {
    /// `(w · x, y · z)` in one pass. Each sum is accumulated exactly as
    /// [`dot`] accumulates it, so the pair equals two `dot` calls bit for
    /// bit; the two independent chains overlap in the pipeline, so the
    /// pair costs about one `dot`.
    pub fn dot_pair<T: Scalar>(w: &[T], x: &[T], y: &[T], z: &[T]) -> (T, T) {
        debug_assert_eq!(w.len(), x.len());
        debug_assert_eq!(y.len(), z.len());
        debug_assert_eq!(w.len(), y.len());
        let (mut wx, mut yz) = (T::ZERO, T::ZERO);
        for (((&a, &b), &c), &d) in w.iter().zip(x).zip(y).zip(z) {
            wx = a.mul_add(b, wx);
            yz = c.mul_add(d, yz);
        }
        (wx, yz)
    }
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn nrm2<T: Scalar>(x: &[T]) -> T {
    dot(x, x).sqrt()
}

fma_kernel! {
    /// `y ← α·x + y`.
    pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
        debug_assert_eq!(x.len(), y.len());
        for (&xv, yv) in x.iter().zip(y.iter_mut()) {
            *yv = alpha.mul_add(xv, *yv);
        }
    }
}

fma_kernel! {
    /// `y ← α·x + β·y`.
    pub fn axpby<T: Scalar>(alpha: T, x: &[T], beta: T, y: &mut [T]) {
        debug_assert_eq!(x.len(), y.len());
        for (&xv, yv) in x.iter().zip(y.iter_mut()) {
            *yv = alpha.mul_add(xv, beta * *yv);
        }
    }
}

/// `x ← α·x`.
#[inline]
pub fn scal<T: Scalar>(alpha: T, x: &mut [T]) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// `y ← x`.
#[inline]
pub fn copy<T: Scalar>(x: &[T], y: &mut [T]) {
    y.copy_from_slice(x);
}

/// `z ← x ⊙ y` (Hadamard product; the scalar-Jacobi application).
#[inline]
pub fn mul_elementwise<T: Scalar>(x: &[T], y: &[T], z: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), z.len());
    for i in 0..x.len() {
        z[i] = x[i] * y[i];
    }
}

/// `y ← x ⊘ d` with zero-diagonal protection: rows whose `d` entry is
/// exactly zero pass through unscaled (matches Ginkgo's batch Jacobi).
#[inline]
pub fn div_elementwise_guarded<T: Scalar>(x: &[T], d: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), d.len());
    debug_assert_eq!(x.len(), y.len());
    for i in 0..x.len() {
        y[i] = if d[i] == T::ZERO { x[i] } else { x[i] / d[i] };
    }
}

/// `r ← b − r` in place (used to finish residual computation after
/// `r = A·x`).
#[inline]
pub fn sub_from<T: Scalar>(b: &[T], r: &mut [T]) {
    debug_assert_eq!(b.len(), r.len());
    for (&bv, rv) in b.iter().zip(r.iter_mut()) {
        *rv = bv - *rv;
    }
}

/// Infinity norm `max |x_i|`.
#[inline]
pub fn nrm_inf<T: Scalar>(x: &[T]) -> T {
    x.iter().fold(T::ZERO, |m, &v| m.max_val(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn dot_and_norm() {
        let x = [3.0f64, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(nrm2(&x), 5.0);
        assert_eq!(nrm_inf(&[-7.0, 2.0]), 7.0);
    }

    #[test]
    fn axpy_variants() {
        let x = [1.0f64, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
        axpby(1.0, &x, 0.5, &mut y);
        assert_eq!(y, [7.0, 14.0, 21.0]);
    }

    #[test]
    fn scal_copy_sub() {
        let mut x = [2.0f64, -4.0];
        scal(0.5, &mut x);
        assert_eq!(x, [1.0, -2.0]);
        let mut y = [0.0; 2];
        copy(&x, &mut y);
        assert_eq!(y, x);
        sub_from(&[5.0, 5.0], &mut y);
        assert_eq!(y, [4.0, 7.0]);
    }

    #[test]
    fn elementwise_ops() {
        let mut z = [0.0f64; 3];
        mul_elementwise(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &mut z);
        assert_eq!(z, [4.0, 10.0, 18.0]);
        let mut y = [0.0f64; 3];
        div_elementwise_guarded(&[8.0, 9.0, 1.5], &[2.0, 0.0, 3.0], &mut y);
        assert_eq!(y, [4.0, 9.0, 0.5]); // zero pivot passes through
    }

    #[test]
    fn dot_pair_is_two_dots_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [0, 1, 5, 992] {
            let v: Vec<Vec<f64>> = (0..4).map(|_| awkward(&mut rng, n)).collect();
            let (wx, yz) = dot_pair(&v[0], &v[1], &v[2], &v[3]);
            assert_eq!(wx.to_bits(), dot(&v[0], &v[1]).to_bits());
            assert_eq!(yz.to_bits(), dot(&v[2], &v[3]).to_bits());
        }
    }

    /// Seeded values over many magnitudes, with ±0, subnormals, ±Inf and
    /// NaN mixed in one time in twelve.
    fn awkward(rng: &mut StdRng, n: usize) -> Vec<f64> {
        const SPECIAL: [f64; 8] = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 3.0,
            -4.9e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
        ];
        (0..n)
            .map(|_| {
                if rng.gen::<u64>() % 12 == 0 {
                    SPECIAL[rng.gen::<usize>() % SPECIAL.len()]
                } else {
                    let exp = (rng.gen::<u64>() % 64) as i32 - 32;
                    rng.gen_range_f64(-1.0, 1.0) * 2f64.powi(exp)
                }
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fma_copies_are_bitwise_identical() {
        if !batsolv_types::fma::detected() {
            eprintln!("no hardware FMA on this CPU: only the portable copy runs");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for trial in 0..400 {
            let n = trial % 37;
            let x = awkward(&mut rng, n);
            let y = awkward(&mut rng, n);
            let ab = awkward(&mut rng, 2);
            let (alpha, beta) = (ab[0], ab[1]);
            assert_eq!(
                dot::hardware(&x, &y).to_bits(),
                dot::portable(&x, &y).to_bits(),
                "dot, trial {trial}"
            );
            let (w, z) = (awkward(&mut rng, n), awkward(&mut rng, n));
            let (hp, pp) = (
                dot_pair::hardware(&x, &y, &w, &z),
                dot_pair::portable(&x, &y, &w, &z),
            );
            assert_eq!(
                [hp.0.to_bits(), hp.1.to_bits()],
                [pp.0.to_bits(), pp.1.to_bits()],
                "dot_pair, trial {trial}"
            );
            let (mut h, mut p) = (y.clone(), y.clone());
            axpy::hardware(alpha, &x, &mut h);
            axpy::portable(alpha, &x, &mut p);
            assert_eq!(bits(&h), bits(&p), "axpy, trial {trial}");
            let (mut h, mut p) = (y.clone(), y.clone());
            axpby::hardware(alpha, &x, beta, &mut h);
            axpby::portable(alpha, &x, beta, &mut p);
            assert_eq!(bits(&h), bits(&p), "axpby, trial {trial}");
        }
    }
}
