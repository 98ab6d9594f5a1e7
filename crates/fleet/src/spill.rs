//! The CPU spill pool: sub-`min_batch_size` chunks run as banded-LU
//! direct solves on the paper's dual-socket Skylake baseline instead of
//! paying a GPU launch they cannot amortize.
//!
//! The pool is just another shard to the rest of the fleet — same
//! queue, same stats, same exactly-once outcome delivery — and its
//! engine is the same [`LadderEngine`] every GPU shard runs, priced on
//! [`DeviceSpec::skylake_node`] (its compute units model the 38 Kokkos
//! solve workers). On a CPU node the ladder is its banded-LU rung alone,
//! so the pool never escalates, and no host link is crossed, so its
//! trace lane holds launches and no transfers.

use std::sync::Arc;

use batsolv_formats::SparsityPattern;
use batsolv_gpusim::DeviceSpec;
use batsolv_runtime::LadderEngine;

use crate::config::FleetConfig;

/// The pool's engine: the fleet's ladder on the Skylake node, tagged
/// with the pool's shard id so its launches land in their own lane.
pub(crate) fn pool_engine(
    pattern: Arc<SparsityPattern>,
    cfg: &FleetConfig,
    shard: u32,
) -> LadderEngine {
    LadderEngine::new(DeviceSpec::skylake_node(), pattern, cfg.ladder)
        .with_tracer(cfg.tracer.clone())
        .with_shard(shard)
}

#[cfg(test)]
mod tests {
    use batsolv_runtime::{BatchItem, LadderConfig, SolveEngine, SolveMethod};
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
        let engine = pool_engine(Arc::clone(&pattern), &FleetConfig::new(4), 4);
        assert_eq!(engine.device().num_cus, 38);
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
        let cpu = pool_engine(Arc::clone(&pattern), &FleetConfig::new(4), 4);
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
