//! Batched dense LU — the Section II strawman.
//!
//! "For these sizes and bandwidth, using dense solvers on the GPU is not
//! enough to beat the gain obtained from exploiting the banded nature of
//! the matrix on the CPU" (paper, Motivation). This is the batched
//! `DGETRF`-style dense direct solver that statement rejects: O(n³)
//! arithmetic and O(n²) storage per system, against the stencil's ~9n
//! nonzeros. It exists here so the claim can be *measured* — see
//! `repro ext-gpu-direct` — and as the dense-direct member of the
//! related-work lineup (Section III's batched-LAPACK line).

use batsolv_blas::lu::{lu_factor, lu_solve, lu_solve_flops};
use batsolv_formats::{BatchDense, BatchMatrix, BatchVectors};
use batsolv_gpusim::{BlockStats, DeviceSpec, SimKernel, TrafficProfile};
use batsolv_types::{OpCounts, Result, Scalar};

use super::true_residual_result;
use crate::common::{run_blocks, BatchSolveReport};

/// The batched dense LU direct solver.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchDenseLu;

impl BatchDenseLu {
    /// Factor and solve every dense system of the batch.
    pub fn solve<T: Scalar>(
        &self,
        device: &DeviceSpec,
        a: &BatchDense<T>,
        b: &BatchVectors<T>,
        x: &mut BatchVectors<T>,
    ) -> Result<BatchSolveReport> {
        let dims = a.dims();
        let n = dims.num_rows;
        let results = run_blocks("dense-lu", a, b, x, |i, bi, xi| {
            xi.copy_from_slice(bi);
            let mut lu = a.matrix_of(i).to_vec();
            let mut piv = vec![0usize; n];
            let factored = lu_factor(n, &mut lu, &mut piv).is_ok();
            if factored {
                lu_solve(n, &lu, &piv, xi);
            }
            true_residual_result(a, i, bi, xi, factored)
        })?;

        let stats = block_stats::<T>(device, n);
        let blocks = vec![stats; dims.num_systems];
        let kernel = SimKernel::new(device, 0).price(&blocks);
        Ok(BatchSolveReport {
            per_system: results,
            kernel,
            plan_description: "dense n x n factors in global memory".into(),
            shared_per_block: 0,
            global_vector_bytes: 0,
            solver: "dense-lu",
            format: "BatchDense",
            device: device.name,
            syncs_per_iteration: 0.0,
        })
    }
}

/// Per-block cost of one dense factor + solve.
fn block_stats<T: Scalar>(device: &DeviceSpec, n: usize) -> BlockStats {
    let w = device.warp_size as u64;
    let n64 = n as u64;
    let vb = T::BYTES as u64;
    let mut counts = OpCounts::ZERO;
    counts.flops = lu_solve_flops(n);
    // Each elimination column updates an (n-k) x (n-k) trailing block —
    // wide and lane-friendly; the column chain is the serial part.
    counts.record_lanes(n64, w, n64 * n64 / 2);
    let slab = n64 * n64 * vb;
    counts.global_read_bytes = slab;
    counts.global_write_bytes = slab + n64 * vb;
    BlockStats {
        iterations: 1,
        converged: true,
        syncs: 0,
        reductions: 0,
        hidden_reductions: 0,
        counts,
        dependent_steps: 2 * n64, // column pipeline + triangular solves
        traffic: TrafficProfile {
            ro_working_set: slab,
            shared_ro_working_set: 0,
            ro_requested: slab,
            rw_working_set: slab,
            // The trailing-update re-touches ~n/3 of the slab per column.
            rw_requested: n64 * n64 * n64 / 3 * vb,
            write_once: n64 * vb,
            shared_bytes: 0,
        },
    }
}

/// Simulated time of a batched dense LU sweep without running numerics.
pub fn dense_lu_time_model<T: Scalar>(device: &DeviceSpec, num_systems: usize, n: usize) -> f64 {
    let stats = block_stats::<T>(device, n);
    let blocks = vec![stats; num_systems];
    SimKernel::new(device, 0).price(&blocks).time_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsolv_formats::{BatchCsr, SparsityPattern};
    use std::sync::Arc;

    fn dense_batch(ns: usize) -> (BatchCsr<f64>, BatchDense<f64>) {
        let p = Arc::new(SparsityPattern::stencil_2d(6, 5, true));
        let mut csr = BatchCsr::zeros(ns, p).unwrap();
        for i in 0..ns {
            csr.fill_system(i, |r, c| {
                if r == c {
                    7.0 + 0.5 * i as f64
                } else {
                    -0.7 + 0.07 * ((r * 3 + c) % 5) as f64
                }
            });
        }
        let dense = BatchDense::from_csr(&csr);
        (csr, dense)
    }

    #[test]
    fn dense_lu_solves_exactly() {
        let (csr, dense) = dense_batch(3);
        let xs = BatchVectors::from_fn(csr.dims(), |s, r| ((s + 1) * (r + 1)) as f64 * 0.01);
        let mut b = BatchVectors::zeros(csr.dims());
        csr.spmv(&xs, &mut b).unwrap();
        let mut x = BatchVectors::zeros(csr.dims());
        let rep = BatchDenseLu
            .solve(&DeviceSpec::v100(), &dense, &b, &mut x)
            .unwrap();
        assert!(rep.all_converged());
        assert!(rep.max_residual() < 1e-11);
        for (a, c) in x.values().iter().zip(xs.values()) {
            assert!((a - c).abs() < 1e-10);
        }
    }

    #[test]
    fn dense_direct_cannot_compete_at_xgc_size() {
        // The Section II claim, measured: at n = 992 the dense O(n³)
        // factorization is orders of magnitude more expensive than both
        // the banded CPU solve and the batched iterative GPU solve.
        use crate::direct::banded_lu::dgbsv_time_model;
        let batch = 480;
        let dense_gpu = dense_lu_time_model::<f64>(&DeviceSpec::v100(), batch, 992);
        let banded_cpu = dgbsv_time_model::<f64>(&DeviceSpec::skylake_node(), batch, 992, 33, 33);
        assert!(
            dense_gpu > 10.0 * banded_cpu,
            "dense GPU {dense_gpu} vs banded CPU {banded_cpu}"
        );
    }

    #[test]
    fn singular_system_is_reported() {
        let dims = batsolv_types::BatchDims::new(1, 4).unwrap();
        let dense = BatchDense::<f64>::zeros(dims);
        let b = BatchVectors::constant(dims, 1.0);
        let mut x = BatchVectors::zeros(dims);
        let rep = BatchDenseLu
            .solve(&DeviceSpec::v100(), &dense, &b, &mut x)
            .unwrap();
        assert!(!rep.all_converged());
        assert_eq!(rep.per_system[0].breakdown, Some("singular"));
    }
}
