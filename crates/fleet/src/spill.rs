//! The CPU spill pool: sub-`min_batch_size` chunks run as banded-LU
//! direct solves on the paper's dual-socket Skylake baseline instead of
//! paying a GPU launch they cannot amortize.
//!
//! The pool is just another shard to the rest of the fleet — same
//! queue, same stats, same exactly-once outcome delivery — with a
//! [`SolveEngine`] that prices work on [`DeviceSpec::skylake_node`]
//! (its compute units model the 38 Kokkos solve workers) rather than a
//! GPU profile, and never escalates: banded LU *is* its only rung.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use batsolv_formats::{BatchBanded, BatchVectors, SparsityPattern};
use batsolv_gpusim::{kernel_launch_event, DeviceSpec};
use batsolv_runtime::dispatcher::{csr_batch, stack_rhs};
use batsolv_runtime::{
    BatchItem, BatchReport, ItemOutcome, RungAttempt, SimSplit, SolveEngine, SolveMethod,
};
use batsolv_solvers::direct::BatchBandedLu;
use batsolv_trace::Tracer;
use batsolv_types::Result;

use crate::config::DEFAULT_CPU_WORKERS;

/// Banded-LU engine on the Skylake host node, tagged with the CPU
/// pool's shard id so its kernel reports land in their own trace lane.
pub(crate) struct CpuLuEngine {
    pattern: Arc<SparsityPattern>,
    device: DeviceSpec,
    shard: u32,
    tracer: Tracer,
    seq: AtomicU64,
}

impl CpuLuEngine {
    /// Build the pool's engine: [`DEFAULT_CPU_WORKERS`] solve workers on
    /// the Skylake node.
    pub fn new(pattern: Arc<SparsityPattern>, shard: u32, tracer: Tracer) -> CpuLuEngine {
        CpuLuEngine {
            pattern,
            device: DeviceSpec {
                num_cus: DEFAULT_CPU_WORKERS as u32,
                ..DeviceSpec::skylake_node()
            },
            shard,
            tracer,
            seq: AtomicU64::new(0),
        }
    }
}

impl SolveEngine for CpuLuEngine {
    fn solve_batch(&self, items: &[BatchItem]) -> Result<BatchReport> {
        let banded = BatchBanded::from_csr(&csr_batch(&self.pattern, items.iter())?)?;
        let b = stack_rhs(self.pattern.num_rows(), items.iter())?;
        let mut x = BatchVectors::zeros(b.dims());
        let report = BatchBandedLu.solve(&self.device, &banded, &b, &mut x)?;

        if self.tracer.is_enabled() {
            self.tracer.emit(
                None,
                kernel_launch_event(
                    self.seq.fetch_add(1, Ordering::Relaxed),
                    report.solver,
                    &self.device,
                    items.len(),
                    report.shared_per_block,
                    report.global_vector_bytes,
                    report.syncs_per_iteration,
                    &report.kernel,
                )
                .with_shard(self.shard),
            );
        }

        let outcomes = items
            .iter()
            .enumerate()
            .map(|(k, it)| {
                let r = &report.per_system[k];
                ItemOutcome {
                    id: it.id,
                    x: x.system(k).to_vec(),
                    iterations: r.iterations,
                    residual: r.residual,
                    converged: r.converged,
                    method: SolveMethod::BandedLuFallback,
                    breakdown: r.breakdown,
                    rungs: vec![RungAttempt {
                        method: SolveMethod::BandedLuFallback,
                        iterations: r.iterations,
                        residual: r.residual,
                        converged: r.converged,
                        breakdown: r.breakdown,
                    }],
                }
            })
            .collect();

        let mut split = SimSplit::default();
        split.add_kernel(&report);
        Ok(BatchReport {
            outcomes,
            sim_time_s: report.time_s(),
            syncs: report.syncs(),
            reductions: report.reductions(),
            solver: report.solver,
            split,
        })
    }
}

#[cfg(test)]
mod tests {
    use batsolv_runtime::{LadderConfig, LadderEngine};
    use batsolv_xgc::{VelocityGrid, XgcWorkload};

    use super::*;

    fn dominant_values(pattern: &SparsityPattern) -> Vec<f64> {
        (0..pattern.num_rows())
            .flat_map(|r| {
                pattern
                    .row_cols(r)
                    .iter()
                    .map(move |&c| if c as usize == r { 8.0 } else { -1.0 })
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn cpu_engine_solves_on_the_skylake_profile() {
        let pattern = Arc::new(SparsityPattern::stencil_2d(4, 4, false));
        let n = pattern.num_rows();
        let engine = CpuLuEngine::new(Arc::clone(&pattern), 4, Tracer::disabled());
        assert_eq!(engine.device.num_cus, 38);
        let items: Vec<BatchItem> = (0..3)
            .map(|i| BatchItem {
                id: i as u64,
                values: dominant_values(&pattern),
                rhs: vec![1.0; n],
                guess: None,
                tolerance: None,
            })
            .collect();
        let report = engine.solve_batch(&items).unwrap();
        assert_eq!(report.outcomes.len(), 3);
        for o in &report.outcomes {
            assert!(o.converged);
            assert_eq!(o.method, SolveMethod::BandedLuFallback);
            assert_eq!(o.rungs.len(), 1, "the pool never escalates");
        }
        assert!(report.sim_time_s > 0.0, "host dispatch is still priced");
    }

    /// Simulated seconds of a sub-cutoff chunk of 7 warm-started XGC
    /// systems, the size BENCH_fleet spills, on the pool and on a V100
    /// shard's fused launch.
    fn spilled_chunk_prices(grid: VelocityGrid) -> (f64, f64) {
        let workload = XgcWorkload::generate(grid, 16, 20220530).unwrap();
        let pattern = Arc::clone(workload.pattern());
        let items: Vec<BatchItem> = (0..7)
            .map(|k| {
                let sys = workload.system(k);
                BatchItem {
                    id: k as u64,
                    values: sys.values.to_vec(),
                    rhs: sys.rhs.to_vec(),
                    guess: Some(sys.warm_guess.to_vec()),
                    tolerance: None,
                }
            })
            .collect();
        let cpu = CpuLuEngine::new(Arc::clone(&pattern), 4, Tracer::disabled());
        let gpu = LadderEngine::new(DeviceSpec::v100(), pattern, LadderConfig::default());
        let cpu_s = cpu.solve_batch(&items).unwrap().sim_time_s;
        let gpu_s = gpu.solve_batch(&items).unwrap().sim_time_s;
        (cpu_s, gpu_s)
    }

    /// The spill's row: on the bench grid the spilled chunk costs the
    /// pool less simulated time than a V100 shard (8.3 vs 102.7 µs on
    /// 10×9).
    #[test]
    fn the_pool_prices_a_spilled_chunk_below_a_gpu_shard() {
        let (cpu_s, gpu_s) = spilled_chunk_prices(VelocityGrid::small(10, 9));
        assert!(cpu_s < gpu_s, "pool {cpu_s:e} s vs V100 {gpu_s:e} s");
    }

    /// On the paper's grid the order is reversed since the shards solve
    /// on ELL: the V100 prices the same chunk below the pool (438.0 vs
    /// 466.7 µs on 32×31; on CSR the V100 cost 1,435.1 µs).
    #[test]
    fn on_the_paper_grid_a_gpu_shard_prices_a_spilled_chunk_below_the_pool() {
        let (cpu_s, gpu_s) = spilled_chunk_prices(VelocityGrid::xgc_standard());
        assert!(gpu_s < cpu_s, "pool {cpu_s:e} s vs V100 {gpu_s:e} s");
    }
}
