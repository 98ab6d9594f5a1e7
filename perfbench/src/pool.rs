//! Seeded request pools for the service workloads: the systems requests
//! are drawn from, the residual check of a returned solution, and the
//! probe batch the per-layer kernel metrics run on.

use std::sync::Arc;

use batsolv_formats::{BatchCsr, BatchMatrix, BatchVectors, SparsityPattern};
use batsolv_runtime::{SolveOutcome, SolveRequest};
use batsolv_types::{BatchDims, Result};
use batsolv_xgc::XgcWorkload;

use crate::openloop::Checks;
use crate::report::{residual_norm, residual_ok, RESIDUAL_SLACK};

/// Systems of one or more generated workloads sharing one pattern.
pub struct Pool {
    pub parts: Vec<XgcWorkload>,
}

/// A system of the pool: `(part, index within part)`.
pub type SysRef = (usize, usize);

impl Pool {
    pub fn pattern(&self) -> &Arc<SparsityPattern> {
        self.parts[0].pattern()
    }

    pub fn request(&self, (p, i): SysRef) -> SolveRequest {
        let s = self.parts[p].system(i);
        SolveRequest::new(s.values.to_vec(), s.rhs.to_vec()).with_guess(s.warm_guess.to_vec())
    }

    /// Check one outcome against its system: converged, finite, and a
    /// recomputed `‖b − Ax‖₂` within `RESIDUAL_SLACK · tol`. Returns
    /// whether it passed.
    pub fn check(
        &self,
        what: u64,
        r: SysRef,
        outcome: &SolveOutcome,
        tol: f64,
        checks: &mut Checks,
    ) -> bool {
        let sol = match outcome {
            Ok(sol) => sol,
            Err(e) => {
                checks.misses.push(format!("request {what}: {e}"));
                return false;
            }
        };
        let w = &self.parts[r.0];
        let b = w.rhs.system(r.1);
        if sol.x.len() != b.len() {
            checks
                .misses
                .push(format!("request {what}: solution has {} rows", sol.x.len()));
            return false;
        }
        let res = residual_norm(|x, y| w.matrices.spmv_system(r.1, x, y), b, &sol.x);
        checks.residual_max = checks.residual_max.max(res);
        checks.iterations.push(f64::from(sol.iterations));
        if !residual_ok(res, tol) {
            checks.misses.push(format!(
                "request {what}: true residual {res:.3e} > {RESIDUAL_SLACK} x {tol:.0e}"
            ));
            return false;
        }
        true
    }

    /// A batch of the given systems: matrices, right-hand sides, guesses.
    pub fn batch(
        &self,
        systems: &[SysRef],
    ) -> Result<(BatchCsr<f64>, BatchVectors<f64>, BatchVectors<f64>)> {
        let n = self.pattern().num_rows();
        let mut a = BatchCsr::zeros(systems.len(), Arc::clone(self.pattern()))?;
        let dims = BatchDims::new(systems.len(), n)?;
        let mut b = BatchVectors::zeros(dims);
        let mut x = BatchVectors::zeros(dims);
        for (k, &(p, i)) in systems.iter().enumerate() {
            let s = self.parts[p].system(i);
            a.values_of_mut(k).copy_from_slice(s.values);
            b.system_mut(k).copy_from_slice(s.rhs);
            x.system_mut(k).copy_from_slice(s.warm_guess);
        }
        Ok((a, b, x))
    }
}

/// splitmix64: the benchmark's seeded stream of operation parameters.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
