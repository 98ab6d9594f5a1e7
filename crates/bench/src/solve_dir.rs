//! Solve an external Matrix Market batch directory.
//!
//! The paper's reproducibility appendix distributes the XGC matrices as
//! a directory tree (one matrix + right-hand side per batch index) and a
//! `run_xgc_matrices.sh` driver. This module is that driver's library
//! form: point it at a directory in the same layout, pick a solver,
//! format, and simulated device, and get the batch solved + priced. The
//! `batsolv-solve` binary wraps it for the command line.

use std::path::Path;

use batsolv_formats::{matrix_market, BatchBanded, BatchEll, BatchMatrix, BatchVectors};
use batsolv_gpusim::DeviceSpec;
use batsolv_solvers::direct::{BatchBandedLu, BatchSparseQr};
use batsolv_solvers::{AbsResidual, BatchBicgstab, BatchSolveReport, Jacobi};
use batsolv_types::{Error, Result};

/// Options of a directory solve.
#[derive(Clone, Debug)]
pub struct SolveDirOptions {
    /// Solver/format: `"bicgstab-csr"`, `"bicgstab-ell"`, `"dgbsv"`,
    /// `"sparse-qr"`.
    pub method: String,
    /// Device name: `"v100"`, `"a100"`, `"mi100"`, `"skylake"`.
    pub device: String,
    /// Absolute residual tolerance for the iterative methods.
    pub tolerance: f64,
}

impl Default for SolveDirOptions {
    fn default() -> Self {
        SolveDirOptions {
            method: "bicgstab-ell".into(),
            device: "a100".into(),
            tolerance: 1e-10,
        }
    }
}

/// Resolve a device by name.
pub fn device_by_name(name: &str) -> Result<DeviceSpec> {
    match name.to_ascii_lowercase().as_str() {
        "v100" => Ok(DeviceSpec::v100()),
        "a100" => Ok(DeviceSpec::a100()),
        "mi100" => Ok(DeviceSpec::mi100()),
        "skylake" | "cpu" => Ok(DeviceSpec::skylake_node()),
        other => Err(Error::InvalidConfig(format!(
            "unknown device `{other}` (expected v100|a100|mi100|skylake)"
        ))),
    }
}

/// Load the batch from `dir`, solve it, and return the report together
/// with the solutions and the true residual.
pub fn solve_directory(
    dir: &Path,
    opts: &SolveDirOptions,
) -> Result<(BatchSolveReport, BatchVectors<f64>, f64)> {
    let (matrices, rhs) = matrix_market::read_batch_dir::<f64>(dir)?;
    let device = device_by_name(&opts.device)?;
    let mut x = BatchVectors::zeros(rhs.dims());
    let report = match opts.method.as_str() {
        "bicgstab-csr" => BatchBicgstab::new(Jacobi, AbsResidual::new(opts.tolerance))
            .solve(&device, &matrices, &rhs, &mut x)?,
        "bicgstab-ell" => {
            let ell = BatchEll::from_csr(&matrices)?;
            BatchBicgstab::new(Jacobi, AbsResidual::new(opts.tolerance))
                .solve(&device, &ell, &rhs, &mut x)?
        }
        "dgbsv" => {
            let banded = BatchBanded::from_csr(&matrices)?;
            BatchBandedLu.solve(&device, &banded, &rhs, &mut x)?
        }
        "sparse-qr" => {
            let banded = BatchBanded::from_csr(&matrices)?;
            BatchSparseQr.solve(&device, &banded, &rhs, &mut x)?
        }
        other => {
            return Err(Error::InvalidConfig(format!(
                "unknown method `{other}` (expected bicgstab-csr|bicgstab-ell|dgbsv|sparse-qr)"
            )))
        }
    };
    let true_residual = matrices.max_residual_norm(&x, &rhs)?;
    Ok((report, x, true_residual))
}

/// Render the human-readable summary the CLI prints.
pub fn summarize(report: &BatchSolveReport, true_residual: f64) -> String {
    format!(
        "{} on {} ({}): {} systems | converged {} | max {} iters (mean {:.1}) | \
         simulated {:.3} ms | warp use {:.1}% | true residual {:.2e}\n{}",
        report.solver,
        report.device,
        report.format,
        report.per_system.len(),
        report.all_converged(),
        report.max_iterations(),
        report.mean_iterations(),
        report.kernel.time_s * 1e3,
        report.kernel.warp_utilization * 100.0,
        true_residual,
        report.plan_description,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsolv_xgc::{VelocityGrid, XgcWorkload};

    fn write_workload(tag: &str) -> std::path::PathBuf {
        let w = XgcWorkload::generate(VelocityGrid::small(8, 7), 3, 7).unwrap();
        let dir = std::env::temp_dir().join(format!("batsolv_dir_{tag}_{}", std::process::id()));
        matrix_market::write_batch_dir(&dir, &w.matrices, &w.rhs).unwrap();
        dir
    }

    #[test]
    fn solves_a_directory_with_every_method() {
        let dir = write_workload("all");
        for method in ["bicgstab-csr", "bicgstab-ell", "dgbsv", "sparse-qr"] {
            let opts = SolveDirOptions {
                method: method.into(),
                device: if method == "dgbsv" { "skylake" } else { "v100" }.into(),
                tolerance: 1e-10,
            };
            let (report, _x, true_res) = solve_directory(&dir, &opts).unwrap();
            assert!(report.all_converged(), "{method} failed");
            assert!(true_res < 1e-7, "{method}: residual {true_res}");
            let summary = summarize(&report, true_res);
            assert!(summary.contains("converged true"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_unknown_method_and_device() {
        let dir = write_workload("bad");
        let opts = SolveDirOptions {
            method: "magic".into(),
            ..Default::default()
        };
        assert!(solve_directory(&dir, &opts).is_err());
        assert!(device_by_name("tpu").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_an_io_error() {
        let opts = SolveDirOptions::default();
        let err = solve_directory(Path::new("/nonexistent/batsolv"), &opts).unwrap_err();
        assert!(matches!(err, Error::Io(_)));
    }
}
