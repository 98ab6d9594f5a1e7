//! `BatchExecutor`: the batch dimension as an explicit dispatch choice.
//!
//! The paper's central execution decision (§III) is *how many kernel
//! launches a batch costs*: looping the systems — one launch each, paying
//! the launch overhead and a nearly-idle device `N` times — or fusing
//! them into **one** launch with one thread block per system. This
//! executor reifies that choice as [`ExecMode`] so both paths run the
//! *same* solver over the *same* operands:
//!
//! * [`ExecMode::Concurrent`] — one fused launch. The solver's numeric
//!   phase fans one task per system across the rayon-shim worker pool
//!   (the host stand-in for "one thread block per system") and the
//!   results are collected back **in batch order** — the reduction order
//!   is deterministic and independent of worker scheduling.
//! * [`ExecMode::Sequential`] — the baseline: `N` single-system launches
//!   through [`SystemSlice`], each priced with its own launch overhead
//!   and its own (single-block) makespan; the device model is what shows
//!   the cost, since the numerics are identical.
//!
//! Because a [`SystemSlice`] delegates to the exact kernels the fused
//! solve runs, both modes produce **bitwise-identical** solutions — the
//! differential tests pin this down, which is what licenses reading the
//! fused/sequential simulated-time ratio as real speedup.
//!
//! The executor threads the same observability seams as the ladder
//! engine, through the same two functions: a [`LaunchHook`] is consulted
//! before every launch (once per system in sequential mode — a failure
//! there loses only that system's launch; once for the whole batch in
//! concurrent mode — a failure loses everything, exactly the
//! blast-radius asymmetry of real devices), and an attached [`Tracer`]
//! receives one `KernelLaunch` record per launch.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use batsolv_formats::{BatchMatrix, BatchVectors, SystemSlice};
use batsolv_gpusim::{DeviceSpec, LaunchHook, NoDisruption};
use batsolv_solvers::{BatchSolveReport, IterativeSolver, SystemResult};
use batsolv_trace::Tracer;
use batsolv_types::{Error, Result, Scalar};

use crate::dispatcher::{consult, record_launch};

/// How the batch dimension is mapped onto launches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// One fused launch, one worker task ("thread block") per system.
    #[default]
    Concurrent,
    /// One launch per system, in batch order (the paper's loop baseline).
    Sequential,
}

impl ExecMode {
    /// Short name used in reports and benchmark JSON.
    pub fn short_name(self) -> &'static str {
        match self {
            ExecMode::Concurrent => "concurrent",
            ExecMode::Sequential => "sequential",
        }
    }
}

/// What one executed batch cost and produced.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Per-system convergence records, in batch order.
    pub per_system: Vec<SystemResult>,
    /// Total simulated device time across all launches, seconds.
    pub sim_time_s: f64,
    /// Kernel launches performed (1 fused, or one per system).
    pub launches: usize,
    /// Synchronization points paid across all launches (worst block).
    pub syncs: u64,
    /// Reduction trees performed across all launches (exposed + hidden).
    pub reductions: u64,
    /// Synchronization points per solver iteration (a property of the
    /// solver variant, identical for every launch of the batch).
    pub syncs_per_iteration: f64,
    /// The mode that ran.
    pub mode: ExecMode,
    /// The fused solve report (concurrent mode only).
    pub fused: Option<BatchSolveReport>,
}

impl ExecReport {
    /// True when every system met the stop criterion.
    pub fn all_converged(&self) -> bool {
        self.per_system.iter().all(|s| s.converged)
    }
}

/// Runs an [`IterativeSolver`] over a batch in a chosen [`ExecMode`].
pub struct BatchExecutor {
    device: DeviceSpec,
    mode: ExecMode,
    hook: Arc<dyn LaunchHook>,
    tracer: Tracer,
    launch_seq: AtomicU64,
}

impl BatchExecutor {
    /// Executor on `device` with no disruption and no tracing.
    pub fn new(device: DeviceSpec, mode: ExecMode) -> Self {
        BatchExecutor {
            device,
            mode,
            hook: Arc::new(NoDisruption),
            tracer: Tracer::disabled(),
            launch_seq: AtomicU64::new(0),
        }
    }

    /// Attach a launch hook (chaos seam), consulted before every launch.
    pub fn with_hook(mut self, hook: Arc<dyn LaunchHook>) -> Self {
        self.hook = hook;
        self
    }

    /// Attach a tracer: every launch emits a `KernelLaunch` event.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Record one launch of `blocks` systems on shard 0's lane.
    fn trace_launch(&self, blocks: usize, rows: usize, report: &BatchSolveReport) {
        let seq = &self.launch_seq;
        record_launch(&self.tracer, seq, &self.device, 0, rows, blocks, report);
    }

    /// Solve `A_i x_i = b_i` for the whole batch, `x` as initial guess.
    ///
    /// In sequential mode a launch-hook failure on one system marks only
    /// that system failed (`breakdown = "device_failure"`, its lane of
    /// `x` untouched) and the loop continues; in concurrent mode the one
    /// fused launch is the unit of loss and the whole call errors.
    pub fn execute<T, S, M>(
        &self,
        solver: &S,
        a: &M,
        b: &BatchVectors<T>,
        x: &mut BatchVectors<T>,
    ) -> Result<ExecReport>
    where
        T: Scalar,
        S: IterativeSolver<T>,
        M: BatchMatrix<T>,
    {
        let dims = a.dims();
        dims.ensure_same(&b.dims(), "executor b")?;
        dims.ensure_same(&x.dims(), "executor x")?;
        let ids: Vec<u64> = (0..dims.num_systems as u64).collect();

        match self.mode {
            ExecMode::Concurrent => {
                consult(&*self.hook, &ids)?;
                let report = solver.solve_batch(&self.device, a, b, x)?;
                self.trace_launch(dims.num_systems, dims.num_rows, &report);
                Ok(ExecReport {
                    per_system: report.per_system.clone(),
                    sim_time_s: report.time_s(),
                    launches: 1,
                    syncs: report.syncs(),
                    reductions: report.reductions(),
                    syncs_per_iteration: report.syncs_per_iteration,
                    mode: self.mode,
                    fused: Some(report),
                })
            }
            ExecMode::Sequential => {
                let mut per_system = Vec::with_capacity(dims.num_systems);
                let mut sim_time_s = 0.0;
                let mut launches = 0usize;
                let mut syncs = 0u64;
                let mut reductions = 0u64;
                let mut syncs_per_iteration = 0.0;
                for i in 0..dims.num_systems {
                    if let Err(Error::DeviceFailure { .. }) = consult(&*self.hook, &ids[i..=i]) {
                        per_system.push(SystemResult {
                            iterations: 0,
                            residual: f64::INFINITY,
                            converged: false,
                            breakdown: Some("device_failure"),
                        });
                        continue;
                    }
                    let slice = SystemSlice::new(a, i)?;
                    let bi = BatchVectors::from_values(slice.dims(), b.system(i).to_vec())?;
                    let mut xi = BatchVectors::from_values(slice.dims(), x.system(i).to_vec())?;
                    let report = solver.solve_batch(&self.device, &slice, &bi, &mut xi)?;
                    x.system_mut(i).copy_from_slice(xi.system(0));
                    self.trace_launch(1, dims.num_rows, &report);
                    sim_time_s += report.time_s();
                    launches += 1;
                    syncs += report.syncs();
                    reductions += report.reductions();
                    syncs_per_iteration = report.syncs_per_iteration;
                    per_system.push(report.per_system[0]);
                }
                Ok(ExecReport {
                    per_system,
                    sim_time_s,
                    launches,
                    syncs,
                    reductions,
                    syncs_per_iteration,
                    mode: self.mode,
                    fused: None,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use batsolv_formats::{BatchCsr, BatchEll, SparsityPattern};
    use batsolv_gpusim::LaunchDisruption;
    use batsolv_solvers::{BatchBicgstab, Jacobi, RelResidual};
    use batsolv_trace::{EventKind, MemorySink};

    use super::*;

    fn batch(ns: usize) -> BatchCsr<f64> {
        let p = Arc::new(SparsityPattern::stencil_2d(6, 5, true));
        let mut m = BatchCsr::zeros(ns, p).unwrap();
        for i in 0..ns {
            m.fill_system(i, |r, c| {
                if r == c {
                    9.0 + (i % 7) as f64 * 0.3
                } else {
                    -0.4 - ((r + c + i) % 5) as f64 * 0.07
                }
            });
        }
        m
    }

    fn solver() -> BatchBicgstab<f64, Jacobi, RelResidual<f64>> {
        BatchBicgstab::new(Jacobi, RelResidual::new(1e-10))
    }

    #[test]
    fn concurrent_and_sequential_agree_bitwise() {
        let m = batch(8);
        let dims = m.dims();
        let b = BatchVectors::from_fn(dims, |s, r| ((s * 3 + r) as f64 * 0.11).sin());

        let mut x_con = BatchVectors::zeros(dims);
        let con = BatchExecutor::new(DeviceSpec::v100(), ExecMode::Concurrent)
            .execute(&solver(), &m, &b, &mut x_con)
            .unwrap();
        let mut x_seq = BatchVectors::zeros(dims);
        let seq = BatchExecutor::new(DeviceSpec::v100(), ExecMode::Sequential)
            .execute(&solver(), &m, &b, &mut x_seq)
            .unwrap();

        assert_eq!(
            x_con.values(),
            x_seq.values(),
            "solutions must be bitwise equal"
        );
        assert_eq!(con.per_system, seq.per_system);
        assert_eq!(con.launches, 1);
        assert_eq!(seq.launches, 8);
        assert!(con.all_converged());
    }

    #[test]
    fn fusing_the_batch_amortizes_launch_overhead() {
        // The paper's Figure 4 effect: N sequential launches each pay the
        // launch overhead and run one block on an empty device, so the
        // fused launch must be substantially faster in simulated time.
        let m = batch(64);
        let dims = m.dims();
        let b = BatchVectors::constant(dims, 1.0);

        let mut x1 = BatchVectors::zeros(dims);
        let con = BatchExecutor::new(DeviceSpec::v100(), ExecMode::Concurrent)
            .execute(&solver(), &m, &b, &mut x1)
            .unwrap();
        let mut x2 = BatchVectors::zeros(dims);
        let seq = BatchExecutor::new(DeviceSpec::v100(), ExecMode::Sequential)
            .execute(&solver(), &m, &b, &mut x2)
            .unwrap();

        let speedup = seq.sim_time_s / con.sim_time_s;
        assert!(
            speedup >= 2.0,
            "expected >=2x from fusing 64 systems, got {speedup:.2}x \
             (seq {:.3e} vs con {:.3e})",
            seq.sim_time_s,
            con.sim_time_s
        );
    }

    #[test]
    fn executor_works_on_ell_column_major() {
        let m = batch(6);
        let ell = BatchEll::from_csr(&m).unwrap();
        let dims = m.dims();
        let b = BatchVectors::constant(dims, 1.0);
        let mut x_csr = BatchVectors::zeros(dims);
        let mut x_ell = BatchVectors::zeros(dims);
        let ex = BatchExecutor::new(DeviceSpec::v100(), ExecMode::Concurrent);
        ex.execute(&solver(), &m, &b, &mut x_csr).unwrap();
        let rep = ex.execute(&solver(), &ell, &b, &mut x_ell).unwrap();
        assert!(rep.all_converged());
        for (a, c) in x_ell.values().iter().zip(x_csr.values()) {
            assert!((a - c).abs() <= 1e-9 * c.abs().max(1.0));
        }
    }

    #[test]
    fn tracer_sees_one_launch_per_mode_unit() {
        let m = batch(5);
        let dims = m.dims();
        let b = BatchVectors::constant(dims, 1.0);

        let sink = Arc::new(MemorySink::new());
        let mut x = BatchVectors::zeros(dims);
        BatchExecutor::new(DeviceSpec::v100(), ExecMode::Concurrent)
            .with_tracer(Tracer::new(sink.clone()))
            .execute(&solver(), &m, &b, &mut x)
            .unwrap();
        let launches = |s: &MemorySink| {
            s.snapshot()
                .iter()
                .filter(|e| matches!(e.kind, EventKind::KernelLaunch { .. }))
                .count()
        };
        assert_eq!(launches(&sink), 1);

        let sink = Arc::new(MemorySink::new());
        let mut x = BatchVectors::zeros(dims);
        BatchExecutor::new(DeviceSpec::v100(), ExecMode::Sequential)
            .with_tracer(Tracer::new(sink.clone()))
            .execute(&solver(), &m, &b, &mut x)
            .unwrap();
        assert_eq!(launches(&sink), 5);
    }

    #[test]
    fn hook_failure_loses_one_launch_sequential_but_all_concurrent() {
        /// Fails exactly the launch that carries id 2.
        struct FailOne;
        impl LaunchHook for FailOne {
            fn disrupt(&self, ids: &[u64]) -> LaunchDisruption {
                if ids.contains(&2) {
                    LaunchDisruption::DeviceFail { code: "zap" }
                } else {
                    LaunchDisruption::Proceed
                }
            }
        }

        let m = batch(4);
        let dims = m.dims();
        let b = BatchVectors::constant(dims, 1.0);

        // Sequential: only system 2's launch is lost.
        let mut x = BatchVectors::zeros(dims);
        let rep = BatchExecutor::new(DeviceSpec::v100(), ExecMode::Sequential)
            .with_hook(Arc::new(FailOne))
            .execute(&solver(), &m, &b, &mut x)
            .unwrap();
        assert_eq!(rep.launches, 3);
        assert!(!rep.per_system[2].converged);
        assert_eq!(rep.per_system[2].breakdown, Some("device_failure"));
        for i in [0usize, 1, 3] {
            assert!(rep.per_system[i].converged, "system {i} must survive");
        }
        assert!(x.system(2).iter().all(|&v| v == 0.0), "lost lane untouched");

        // Concurrent: the fused launch carries id 2, everything is lost.
        let mut x = BatchVectors::zeros(dims);
        let err = BatchExecutor::new(DeviceSpec::v100(), ExecMode::Concurrent)
            .with_hook(Arc::new(FailOne))
            .execute(&solver(), &m, &b, &mut x)
            .unwrap_err();
        assert!(matches!(err, Error::DeviceFailure { code: "zap" }));
    }
}
