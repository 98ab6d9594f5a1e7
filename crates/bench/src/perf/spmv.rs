//! SpMV perf sweep: format × value layout × batch size.
//!
//! For each combination over the 992-row XGC stencil the sweep measures
//! the host wall time of a whole-batch SpMV (median of repeated runs —
//! this is what LLVM's autovectorization of the iterator kernels shows
//! up in) and prices the same batch on the simulated device (one fused
//! launch, one block per system — deterministic, this is what the
//! regression gate tracks).

use std::time::Instant;

use batsolv_formats::{BatchCsr, BatchDia, BatchEll, BatchMatrix, BatchVectors, ValueLayout};
use batsolv_gpusim::{BlockStats, DeviceSpec, SimKernel, TrafficProfile};
use batsolv_types::Result;
use batsolv_xgc::{VelocityGrid, XgcWorkload};

use super::json::{obj, Json};
use super::{median_us, Metrics};

/// One measured (format, layout, batch) cell.
#[derive(Clone, Debug)]
pub struct SpmvCell {
    /// Format id used in metric keys (`csr`, `ell_col`, `ell_row`, ...).
    pub key: &'static str,
    /// Human format name as reported by the matrix.
    pub format: String,
    /// Batch size.
    pub batch: usize,
    /// Median wall time of one whole-batch SpMV, microseconds.
    pub wall_us: f64,
    /// Simulated device time of the fused batch SpMV, microseconds.
    pub sim_us: f64,
    /// Modeled DRAM traffic of the launch, bytes.
    pub dram_bytes: u64,
    /// Modeled effective bandwidth, GB/s.
    pub modeled_gbs: f64,
    /// SIMD lane utilization of the kernel.
    pub lane_utilization: f64,
}

/// The whole sweep plus the workload description.
#[derive(Clone, Debug)]
pub struct SpmvSweep {
    pub rows: usize,
    pub cells: Vec<SpmvCell>,
}

/// Price one whole-batch SpMV as a single fused launch.
fn price_spmv<M: BatchMatrix<f64>>(device: &DeviceSpec, a: &M) -> (f64, u64, f64) {
    let counts = a.spmv_counts(device.warp_size);
    let n = a.dims().num_rows;
    let ro_working_set = (a.value_bytes_per_system() + a.shared_index_bytes() + n * 8) as u64;
    let block = BlockStats {
        iterations: 1,
        converged: true,
        syncs: 0,
        reductions: 0,
        hidden_reductions: 0,
        counts,
        dependent_steps: 1,
        traffic: TrafficProfile {
            ro_working_set,
            shared_ro_working_set: a.shared_index_bytes() as u64,
            ro_requested: counts.global_read_bytes,
            rw_working_set: 0,
            rw_requested: 0,
            write_once: counts.global_write_bytes,
            shared_bytes: counts.shared_read_bytes + counts.shared_write_bytes,
        },
    };
    let blocks = vec![block; a.dims().num_systems];
    let report = SimKernel {
        device,
        shared_per_block: 0,
        launches: 1,
        reduction_width: 0,
    }
    .price(&blocks);
    let gbs = report.dram_bytes as f64 / report.time_s.max(1e-30) / 1e9;
    (report.time_s * 1e6, report.dram_bytes, gbs)
}

/// Measure one matrix: wall median over `reps` whole-batch SpMVs.
fn measure<M: BatchMatrix<f64>>(
    device: &DeviceSpec,
    key: &'static str,
    a: &M,
    x: &BatchVectors<f64>,
    y: &mut BatchVectors<f64>,
    reps: usize,
) -> SpmvCell {
    // Warm-up pass (page the slabs in, let the branch predictor settle).
    a.spmv(x, y).unwrap();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        a.spmv(x, y).unwrap();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let (sim_us, dram_bytes, modeled_gbs) = price_spmv(device, a);
    SpmvCell {
        key,
        format: a.format_name().to_string(),
        batch: a.dims().num_systems,
        wall_us: median_us(&mut samples),
        sim_us,
        dram_bytes,
        modeled_gbs,
        lane_utilization: a.spmv_counts(device.warp_size).lane_utilization(),
    }
}

/// Run the sweep. `quick` trims batch sizes and repetitions to CI scale.
pub fn run(device: &DeviceSpec, quick: bool) -> Result<SpmvSweep> {
    let batches: &[usize] = if quick { &[64] } else { &[16, 64, 256] };
    let reps = if quick { 9 } else { 25 };
    let grid = VelocityGrid::xgc_standard();
    let rows = grid.num_nodes();
    let mut cells = Vec::new();
    for &batch in batches {
        let w = XgcWorkload::generate(grid, batch / 2, 1234)?;
        let csr: &BatchCsr<f64> = &w.matrices;
        let dims = csr.dims();
        let x = BatchVectors::from_fn(dims, |s, r| ((s * 31 + r) as f64 * 0.0137).sin());
        let mut y = BatchVectors::zeros(dims);

        cells.push(measure(device, "csr", csr, &x, &mut y, reps));
        for (k_ell, k_dia, layout) in [
            ("ell_col", "dia_col", ValueLayout::ColMajor),
            ("ell_row", "dia_row", ValueLayout::RowMajor),
        ] {
            let ell = BatchEll::from_csr_in(csr, layout)?;
            cells.push(measure(device, k_ell, &ell, &x, &mut y, reps));
            let dia = BatchDia::from_csr_in(csr, 16, layout)?;
            cells.push(measure(device, k_dia, &dia, &x, &mut y, reps));
        }
    }
    Ok(SpmvSweep { rows, cells })
}

impl SpmvSweep {
    /// The `BENCH_spmv.json` document.
    pub fn to_json(&self, device: &DeviceSpec, quick: bool) -> Json {
        let results: Vec<Json> = self
            .cells
            .iter()
            .map(|c| {
                obj(vec![
                    ("key", Json::Str(c.key.into())),
                    ("format", Json::Str(c.format.clone())),
                    ("batch", Json::Num(c.batch as f64)),
                    ("wall_median_us", Json::Num(c.wall_us)),
                    ("sim_us", Json::Num(c.sim_us)),
                    ("dram_bytes", Json::Num(c.dram_bytes as f64)),
                    ("modeled_bandwidth_gbs", Json::Num(c.modeled_gbs)),
                    ("lane_utilization", Json::Num(c.lane_utilization)),
                ])
            })
            .collect();
        obj(vec![
            ("schema", Json::Str("batsolv-bench/spmv/v1".into())),
            ("quick", Json::Bool(quick)),
            ("device", Json::Str(device.name.into())),
            ("rows", Json::Num(self.rows as f64)),
            ("results", Json::Arr(results)),
        ])
    }

    /// Deterministic (simulated) metrics for the regression gate, keyed
    /// `spmv.<format>.b<batch>.sim_us` — lower is better.
    pub fn gate_metrics(&self) -> Metrics {
        self.cells
            .iter()
            .map(|c| (format!("spmv.{}.b{}.sim_us", c.key, c.batch), c.sim_us))
            .collect()
    }
}
