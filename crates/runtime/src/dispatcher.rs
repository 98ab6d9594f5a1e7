//! Batch dispatcher: turns a formed batch into one fused solve.
//!
//! The engine is a trait so the service loop can be exercised with a
//! deterministic test double (e.g. a blocking engine for backpressure
//! tests) while production uses [`LadderEngine`] on every device. On a
//! GPU it runs the paper's fused batched BiCGSTAB, escalated per-system
//! through restarted GMRES and finally the banded-LU (`dgbsv`) direct
//! baseline; each rung only reprocesses the systems the previous rung
//! left behind, so a healthy batch pays exactly one BiCGSTAB launch. On
//! a CPU node (the fleet's spill pool) the ladder is the banded-LU rung
//! alone, the paper's Skylake baseline.
//!
//! The iterative rungs solve on the paper's column-major `BatchEll`. The
//! engine builds the pattern's [`EllIndex`] once and copies each member's
//! CSR-ordered values straight into a batch on it: one copy per request.
//!
//! The engine consults a [`LaunchHook`] immediately before the fused
//! launch — the chaos seam: a hook can fail the launch like a device
//! error, stall it, or panic the worker (see `batsolv-faults`). Both of
//! the runtime's launchers, this engine and
//! [`BatchExecutor`](crate::BatchExecutor), consult it through
//! [`consult`] and record their launches through [`record_launch`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use batsolv_formats::{
    BatchBanded, BatchCsr, BatchEll, BatchVectors, EllIndex, SparsityPattern, ValueLayout,
};
use batsolv_gpusim::{
    kernel_launch_event, reduction_event, sync_point_event, transfer_event, DeviceClass,
    DeviceSpec, Direction, LaunchDisruption, LaunchHook, NoDisruption,
};
use batsolv_solvers::direct::BatchBandedLu;
use batsolv_solvers::{
    AbsResidual, BatchBicgstab, BatchGmres, BatchSolveReport, Jacobi, PipelinedBicgstab,
    SystemResult, TraceLogger,
};
use batsolv_trace::{EventKind, Tracer};
use batsolv_types::{BatchDims, Error, Result};

use crate::request::{RequestId, RungAttempt, SolveMethod};

/// One request's payload as handed to the engine.
#[derive(Clone, Debug, Default)]
pub struct BatchItem {
    /// Service-assigned id, echoed back in the outcome.
    pub id: RequestId,
    /// CSR values over the shared pattern.
    pub values: Vec<f64>,
    /// Right-hand side.
    pub rhs: Vec<f64>,
    /// Optional warm-start guess.
    pub guess: Option<Vec<f64>>,
    /// Per-request tolerance override.
    pub tolerance: Option<f64>,
}

/// One request's result as produced by the engine.
#[derive(Clone, Debug)]
pub struct ItemOutcome {
    /// Echoed request id.
    pub id: RequestId,
    /// Solution vector (last iterate when not converged).
    pub x: Vec<f64>,
    /// Total iterative-solver iterations spent on this system, summed
    /// across rungs.
    pub iterations: u32,
    /// Final residual 2-norm.
    pub residual: f64,
    /// Whether a solution within tolerance was produced.
    pub converged: bool,
    /// Which path produced `x`.
    pub method: SolveMethod,
    /// Solver breakdown tag, if any.
    pub breakdown: Option<&'static str>,
    /// Every ladder rung attempted, in order.
    pub rungs: Vec<RungAttempt>,
}

impl ItemOutcome {
    /// Failed, or rescued only by the banded-LU fallback: what the
    /// circuit breaker counts against a device.
    pub fn is_degraded(&self) -> bool {
        !self.converged || self.method == SolveMethod::BandedLuFallback
    }
}

/// What one fused dispatch produced.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-item outcomes, in batch order.
    pub outcomes: Vec<ItemOutcome>,
    /// Simulated kernel time of the dispatch (all rungs).
    pub sim_time_s: f64,
    /// Synchronization points paid across all rungs (worst block).
    pub syncs: u64,
    /// Reduction trees performed across all rungs (exposed + hidden).
    pub reductions: u64,
    /// Name of the engine's first rung: the fused variant on a GPU,
    /// `banded-lu` on a CPU node.
    pub solver: &'static str,
    /// Simulated solve-time decomposition of the whole dispatch.
    pub split: SimSplit,
}

/// Where the simulated solve time of a dispatch went, microseconds
/// (sim clock, all rungs summed). This is the Figure 1 decomposition at
/// service granularity: compute (SpMV + vector ops), exposed reduction
/// trees, barrier waits, and host↔device transfers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimSplit {
    /// SpMV + vector-op compute time (kernel time minus barriers).
    pub spmv_us: f64,
    /// Exposed tree-reduction time.
    pub reduction_us: f64,
    /// Barrier (synchronization-point) time.
    pub sync_us: f64,
    /// Host↔device transfer time (operand upload + solution download).
    pub transfer_us: f64,
}

impl SimSplit {
    /// Sum of every component.
    pub fn total_us(&self) -> f64 {
        self.spmv_us + self.reduction_us + self.sync_us + self.transfer_us
    }

    /// Fold one rung's kernel report in. `sync_s` covers barriers plus
    /// exposed reductions; it is apportioned between the two by their
    /// critical-path counts, and the remainder of the kernel time is
    /// compute (SpMV + fused vector passes).
    pub fn add_kernel(&mut self, report: &BatchSolveReport) {
        let total_us = report.time_s() * 1e6;
        let sync_block_us = (report.kernel.sync_s * 1e6).min(total_us);
        let (syncs, reds) = (report.syncs() as f64, report.reductions() as f64);
        let denom = syncs + reds;
        let red_share = if denom > 0.0 { reds / denom } else { 0.0 };
        self.reduction_us += sync_block_us * red_share;
        self.sync_us += sync_block_us * (1.0 - red_share);
        self.spmv_us += total_us - sync_block_us;
    }

    /// Fold one host↔device copy in.
    pub fn add_transfer(&mut self, device: &DeviceSpec, bytes: u64, dir: Direction) {
        self.transfer_us += batsolv_gpusim::transfer_time(device, bytes, dir) * 1e6;
    }

    /// Even per-request share of the dispatch (batch members share the
    /// fused launch, so attribution divides it).
    pub fn per_item(&self, batch_size: usize) -> SimSplit {
        let d = batch_size.max(1) as f64;
        SimSplit {
            spmv_us: self.spmv_us / d,
            reduction_us: self.reduction_us / d,
            sync_us: self.sync_us / d,
            transfer_us: self.transfer_us / d,
        }
    }
}

/// Which fused solver variant carries rung 1 of the ladder. Both run
/// under scalar Jacobi, the paper's production preconditioner.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SolverVariant {
    /// Batched BiCGSTAB (Algorithm 1) with the fused-AXPY vector pass:
    /// the classical numerics bit for bit at 5 syncs/iteration instead
    /// of 6 (BENCH_solve `bicgstab-fused`).
    #[default]
    Bicgstab,
    /// Pipelined BiCGSTAB (fused reductions): 2 syncs/iteration.
    PipelinedBicgstab,
}

impl SolverVariant {
    /// Parse a `--solver` flag value; `None` on an unknown name.
    pub fn parse(s: &str) -> Option<SolverVariant> {
        match s {
            "bicgstab" => Some(SolverVariant::Bicgstab),
            "pipelined-bicgstab" => Some(SolverVariant::PipelinedBicgstab),
            _ => None,
        }
    }

    /// The name used in reports, traces and metrics.
    pub fn name(self) -> &'static str {
        match self {
            SolverVariant::Bicgstab => "bicgstab",
            SolverVariant::PipelinedBicgstab => "pipelined-bicgstab",
        }
    }

    /// Every accepted `--solver` value, for usage/error messages.
    pub const NAMES: &'static [&'static str] = &["bicgstab", "pipelined-bicgstab"];
}

/// A batch solver the service can dispatch to.
pub trait SolveEngine: Send + Sync + 'static {
    /// Solve every item of the batch; must return exactly one outcome
    /// per item, in order.
    fn solve_batch(&self, items: &[BatchItem]) -> Result<BatchReport>;
}

/// Knobs of the escalation ladder.
#[derive(Clone, Copy, Debug)]
pub struct LadderConfig {
    /// Tolerance used when an item carries none.
    pub default_tolerance: f64,
    /// BiCGSTAB iteration cap (rung 1).
    pub max_iters: usize,
    /// Whether rung 2 (restarted GMRES) runs at all.
    pub enable_gmres: bool,
    /// GMRES restart length.
    pub gmres_restart: usize,
    /// GMRES total-iteration cap.
    pub gmres_max_iters: usize,
    /// Whether rung 3 (banded LU) runs at all.
    pub enable_fallback: bool,
    /// Which fused solver variant carries rung 1.
    pub solver: SolverVariant,
}

impl Default for LadderConfig {
    /// The serving defaults of both the single-device service and the
    /// fleet: the paper's 1e-10 tolerance, 500 BiCGSTAB iterations, then
    /// GMRES(30) for 300 iterations, then banded LU.
    fn default() -> LadderConfig {
        LadderConfig {
            default_tolerance: 1e-10,
            max_iters: 500,
            enable_gmres: true,
            gmres_restart: 30,
            gmres_max_iters: 300,
            enable_fallback: true,
            solver: SolverVariant::Bicgstab,
        }
    }
}

/// One rung of the ladder. The first runs over the whole batch; each
/// later one over the members the rungs before it left unconverged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rung {
    /// The configured fused variant under Jacobi, from each member's
    /// guess (zero when it has none).
    Fused(SolverVariant),
    /// Restarted GMRES under Jacobi, warm-started from the last
    /// (sanitized, finite) iterate.
    Gmres,
    /// Banded-LU direct solve (`dgbsv`) from zero: it produces a solution
    /// modulo genuine singularity, so a missed iteration cap degrades to
    /// dgbsv cost instead of an error.
    BandedLu,
}

impl Rung {
    /// The ladder on `device`. A CPU node (no shared memory, one block per
    /// core) runs the banded-LU rung alone, the paper's `dgbsv` baseline;
    /// a GPU runs the fused variant, then GMRES and banded LU as `cfg`
    /// enables them.
    fn ladder(device: &DeviceSpec, cfg: &LadderConfig) -> Vec<Rung> {
        if device.class == DeviceClass::CpuNode {
            return vec![Rung::BandedLu];
        }
        [
            Some(Rung::Fused(cfg.solver)),
            cfg.enable_gmres.then_some(Rung::Gmres),
            cfg.enable_fallback.then_some(Rung::BandedLu),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    /// The rung number in traces, fixed by kind whatever the ladder skips.
    fn level(self) -> u8 {
        match self {
            Rung::Fused(_) => 1,
            Rung::Gmres => 2,
            Rung::BandedLu => 3,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Rung::Fused(variant) => variant.name(),
            Rung::Gmres => "gmres",
            Rung::BandedLu => "banded-lu",
        }
    }

    fn method(self) -> SolveMethod {
        match self {
            Rung::Fused(_) => SolveMethod::Bicgstab,
            Rung::Gmres => SolveMethod::Gmres,
            Rung::BandedLu => SolveMethod::BandedLuFallback,
        }
    }
}

/// The production engine, on any device: the ladder of rungs the device
/// runs ([`Rung::ladder`]), every iterative rung under scalar Jacobi.
pub struct LadderEngine {
    device: DeviceSpec,
    /// The column-major ELL index of the served pattern, built once.
    index: Arc<EllIndex>,
    cfg: LadderConfig,
    /// The rungs `device` runs, in order.
    rungs: Vec<Rung>,
    hook: Arc<dyn LaunchHook>,
    tracer: Tracer,
    /// Fleet shard id stamped onto every simulated-device record the
    /// engine emits (0 = the single-device service default).
    shard: u32,
    /// Monotonic kernel-launch sequence across the engine's lifetime.
    launch_seq: AtomicU64,
}

impl LadderEngine {
    /// Engine over `pattern`, priced on `device`, with no disruption.
    pub fn new(device: DeviceSpec, pattern: Arc<SparsityPattern>, cfg: LadderConfig) -> Self {
        Self::with_hook(device, pattern, cfg, Arc::new(NoDisruption))
    }

    /// Engine with a caller-provided launch hook (chaos testing).
    pub fn with_hook(
        device: DeviceSpec,
        pattern: Arc<SparsityPattern>,
        cfg: LadderConfig,
        hook: Arc<dyn LaunchHook>,
    ) -> LadderEngine {
        LadderEngine {
            rungs: Rung::ladder(&device, &cfg),
            device,
            index: Arc::new(EllIndex::new(pattern, ValueLayout::ColMajor)),
            cfg,
            hook,
            tracer: Tracer::disabled(),
            shard: 0,
            launch_seq: AtomicU64::new(0),
        }
    }

    /// Attach a tracer: rung spans, per-iteration residuals, and the
    /// kernel-launch/transfer timeline flow into its sink.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Tag the engine with a fleet shard id: every kernel-launch,
    /// sync, reduction, and transfer record it emits carries the id,
    /// which the chrome exporter turns into one device lane per shard.
    pub fn with_shard(mut self, shard: u32) -> Self {
        self.shard = shard;
        self
    }

    /// The device the engine prices on.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Record one host↔device copy on the shard's lane. A CPU node's
    /// data is already on the host: no copy crosses a link, so none is
    /// recorded.
    fn trace_transfer(&self, bytes: u64, dir: Direction) {
        if self.device.host_link_gbps.is_finite() {
            self.tracer.emit(
                None,
                transfer_event(&self.device, bytes, dir).with_shard(self.shard),
            );
        }
    }

    /// Bytes a subset's operands (values + RHS) occupy on the wire.
    fn upload_bytes(items: &[BatchItem], subset: &[usize]) -> u64 {
        subset
            .iter()
            .map(|&i| ((items[i].values.len() + items[i].rhs.len()) * 8) as u64)
            .sum()
    }

    /// Tightest tolerance requested across the batch (a fused launch has
    /// one stopping criterion, so it must satisfy the strictest member).
    fn effective_tolerance(&self, items: &[BatchItem]) -> f64 {
        items
            .iter()
            .filter_map(|it| it.tolerance)
            .fold(self.cfg.default_tolerance, f64::min)
    }

    /// Copy a subset's values into one ELL batch on the shared index (one
    /// copy per member) and stack its right-hand sides.
    fn assemble(
        &self,
        items: &[BatchItem],
        subset: &[usize],
    ) -> Result<(BatchEll<f64>, BatchVectors<f64>)> {
        let mut a = BatchEll::zeros_on(subset.len(), Arc::clone(&self.index))?;
        for (k, &i) in subset.iter().enumerate() {
            a.copy_csr_values(k, &items[i].values)?;
        }
        let n = self.index.pattern().num_rows();
        let b = stack_rhs(n, subset.iter().map(|&i| &items[i]))?;
        Ok((a, b))
    }

    /// Run one rung over `sub` (indices into `items`; `out` holds the
    /// records of the rungs before it): build its operands, solve, record
    /// the rung spans and the launch when traced, and charge the rung's
    /// device cost (operand upload plus kernel) to `out`. Traced, the
    /// iterative rungs bridge per-iteration residuals through the
    /// solver's logger seam.
    fn run_rung(
        &self,
        rung: Rung,
        tol: f64,
        items: &[BatchItem],
        sub: &[usize],
        out: &mut BatchReport,
    ) -> Result<(BatchSolveReport, BatchVectors<f64>)> {
        let n = self.index.pattern().num_rows();
        let traced = self.tracer.is_enabled();
        let (level, method) = (rung.level(), rung.name());
        let begin = || {
            if traced {
                for &i in sub {
                    self.tracer.emit(
                        Some(items[i].id),
                        EventKind::RungBegin {
                            rung: level,
                            method,
                        },
                    );
                }
            }
        };
        let (report, x) = if rung == Rung::BandedLu {
            let members = || sub.iter().map(|&i| &items[i]);
            let a = BatchBanded::from_csr(&csr_batch(self.index.pattern(), members())?)?;
            let b = stack_rhs(n, members())?;
            let mut x = BatchVectors::zeros(b.dims());
            begin();
            (BatchBandedLu.solve(&self.device, &a, &b, &mut x)?, x)
        } else {
            let (a, b) = self.assemble(items, sub)?;
            let mut x = BatchVectors::zeros(b.dims());
            for (k, &i) in sub.iter().enumerate() {
                let start = match out.outcomes.get(i) {
                    Some(o) => Some(o.x.as_slice()),
                    None => items[i].guess.as_deref(),
                };
                if let Some(g) = start {
                    x.system_mut(k).copy_from_slice(g);
                }
            }
            begin();
            let stop = AbsResidual::new(tol);
            let logger = |k: usize| TraceLogger::new(&self.tracer, items[sub[k]].id, level);
            macro_rules! solve {
                ($solver:expr) => {
                    if traced {
                        $solver.solve_logged(&self.device, &a, &b, &mut x, logger)
                    } else {
                        $solver.solve(&self.device, &a, &b, &mut x)
                    }
                };
            }
            let report = match rung {
                Rung::Fused(SolverVariant::Bicgstab) => solve!(BatchBicgstab::new(Jacobi, stop)
                    .with_max_iters(self.cfg.max_iters)
                    .with_fused_axpy(true)),
                Rung::Fused(SolverVariant::PipelinedBicgstab) => {
                    solve!(PipelinedBicgstab::new(Jacobi, stop).with_max_iters(self.cfg.max_iters))
                }
                _ => solve!(BatchGmres::new(Jacobi, stop, self.cfg.gmres_restart)
                    .with_max_iters(self.cfg.gmres_max_iters)),
            };
            (report?, x)
        };
        let upload = Self::upload_bytes(items, sub);
        if traced {
            self.trace_transfer(upload, Direction::HostToDevice);
            record_launch(
                &self.tracer,
                &self.launch_seq,
                &self.device,
                self.shard,
                n,
                sub.len(),
                &report,
            );
            for (&i, r) in sub.iter().zip(&report.per_system) {
                self.tracer.emit(
                    Some(items[i].id),
                    EventKind::RungEnd {
                        rung: level,
                        method,
                        iterations: r.iterations,
                        residual: r.residual,
                        converged: r.converged,
                        breakdown: r.breakdown,
                    },
                );
            }
        }
        out.sim_time_s += report.time_s();
        out.syncs += report.syncs();
        out.reductions += report.reductions();
        out.split
            .add_transfer(&self.device, upload, Direction::HostToDevice);
        out.split.add_kernel(&report);
        Ok((report, x))
    }
}

impl SolveEngine for LadderEngine {
    fn solve_batch(&self, items: &[BatchItem]) -> Result<BatchReport> {
        // Chaos seam: the hook sees the fused launch before it happens.
        let ids: Vec<u64> = items.iter().map(|it| it.id).collect();
        consult(&*self.hook, &ids)?;

        let tol = self.effective_tolerance(items);
        let mut out = BatchReport {
            outcomes: Vec::new(),
            sim_time_s: 0.0,
            syncs: 0,
            reductions: 0,
            solver: self.rungs[0].name(),
            split: SimSplit::default(),
        };
        // One walk over the ladder: the first rung seeds the outcomes,
        // each later one takes only the systems still unconverged.
        let mut sub: Vec<usize> = (0..items.len()).collect();
        for (k, &rung) in self.rungs.iter().enumerate() {
            if k > 0 {
                sub = (0..items.len())
                    .filter(|&i| !out.outcomes[i].converged)
                    .collect();
                if sub.is_empty() {
                    break;
                }
            }
            let (report, x) = self.run_rung(rung, tol, items, &sub, &mut out)?;
            if k == 0 {
                out.outcomes = seed(items, &report, &x, rung.method());
            } else {
                absorb(&mut out.outcomes, &sub, &report, &x, rung.method());
            }
        }

        // Download of the solutions, one fused d2h copy for the batch.
        let download = (items.len() * self.index.pattern().num_rows() * 8) as u64;
        if self.tracer.is_enabled() {
            self.trace_transfer(download, Direction::DeviceToHost);
        }
        out.split
            .add_transfer(&self.device, download, Direction::DeviceToHost);
        Ok(out)
    }
}

/// Consult a launch hook before a launch: proceed, stall and then
/// proceed, fail the launch like a device error, or panic the launching
/// worker.
pub(crate) fn consult(hook: &dyn LaunchHook, ids: &[u64]) -> Result<()> {
    match hook.disrupt(ids) {
        LaunchDisruption::Proceed => Ok(()),
        LaunchDisruption::DeviceFail { code } => Err(Error::DeviceFailure { code }),
        LaunchDisruption::Panic { reason } => panic!("{reason}"),
        LaunchDisruption::Stall(d) => {
            std::thread::sleep(d);
            Ok(())
        }
    }
}

/// Record one priced launch of `blocks` systems of `rows` rows on a
/// device lane: its `KernelLaunch`, then `SyncPoint` and `Reduction`
/// markers where it paid barriers and reduction trees (direct solvers
/// pay neither), each tagged with `shard` and the next number of `seq`.
pub(crate) fn record_launch(
    tracer: &Tracer,
    seq: &AtomicU64,
    device: &DeviceSpec,
    shard: u32,
    rows: usize,
    blocks: usize,
    report: &BatchSolveReport,
) {
    if !tracer.is_enabled() {
        return;
    }
    let seq = seq.fetch_add(1, Ordering::Relaxed);
    let (solver, kernel) = (report.solver, &report.kernel);
    let launch = kernel_launch_event(
        seq,
        solver,
        device,
        blocks,
        report.shared_per_block,
        report.global_vector_bytes,
        report.syncs_per_iteration,
        kernel,
    );
    tracer.emit(None, launch.with_shard(shard));
    if kernel.syncs > 0 {
        tracer.emit(
            None,
            sync_point_event(seq, solver, kernel).with_shard(shard),
        );
    }
    if kernel.reductions > 0 {
        let width = (rows * blocks) as u64;
        let reduction = reduction_event(seq, solver, width, kernel);
        tracer.emit(None, reduction.with_shard(shard));
    }
}

/// The members' CSR values as one batch, each copied straight into its
/// slab: the banded-LU rung converts it to banded.
pub fn csr_batch<'a>(
    pattern: &Arc<SparsityPattern>,
    members: impl Iterator<Item = &'a BatchItem>,
) -> Result<BatchCsr<f64>> {
    let values: Vec<&[f64]> = members.map(|it| it.values.as_slice()).collect();
    BatchCsr::from_system_values(Arc::clone(pattern), &values)
}

/// The members' right-hand sides stacked into one batch of `n`-vectors.
pub fn stack_rhs<'a>(
    n: usize,
    members: impl ExactSizeIterator<Item = &'a BatchItem>,
) -> Result<BatchVectors<f64>> {
    let dims = BatchDims::new(members.len(), n)?;
    let mut flat = Vec::with_capacity(dims.num_systems * n);
    for it in members {
        flat.extend_from_slice(&it.rhs);
    }
    BatchVectors::from_values(dims, flat)
}

fn attempt(method: SolveMethod, r: &SystemResult) -> RungAttempt {
    RungAttempt {
        method,
        iterations: r.iterations,
        residual: r.residual,
        converged: r.converged,
        breakdown: r.breakdown,
    }
}

/// The outcomes as the first rung left them: its iterate, record and
/// attempt for every member.
fn seed(
    items: &[BatchItem],
    report: &BatchSolveReport,
    x: &BatchVectors<f64>,
    method: SolveMethod,
) -> Vec<ItemOutcome> {
    items
        .iter()
        .zip(&report.per_system)
        .enumerate()
        .map(|(i, (it, r))| ItemOutcome {
            id: it.id,
            x: x.system(i).to_vec(),
            iterations: r.iterations,
            residual: r.residual,
            converged: r.converged,
            method,
            breakdown: r.breakdown,
            rungs: vec![attempt(method, r)],
        })
        .collect()
}

/// Fold an escalation rung's results over `sub` into the outcomes: the
/// attempt is recorded, and a system the rung converged takes its
/// solution. Iterations add up over the iterative rungs only.
fn absorb(
    outcomes: &mut [ItemOutcome],
    sub: &[usize],
    report: &BatchSolveReport,
    x: &BatchVectors<f64>,
    method: SolveMethod,
) {
    for (k, (&i, r)) in sub.iter().zip(&report.per_system).enumerate() {
        let o = &mut outcomes[i];
        o.rungs.push(attempt(method, r));
        if method != SolveMethod::BandedLuFallback {
            o.iterations += r.iterations;
        }
        if r.converged {
            o.x = x.system(k).to_vec();
            o.residual = r.residual;
            o.converged = true;
            o.method = method;
            o.breakdown = None;
        } else {
            o.breakdown = r.breakdown.or(o.breakdown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(tol: f64, max_iters: usize) -> LadderConfig {
        LadderConfig {
            default_tolerance: tol,
            max_iters,
            enable_gmres: true,
            gmres_restart: 30,
            gmres_max_iters: 300,
            enable_fallback: true,
            solver: SolverVariant::Bicgstab,
        }
    }

    /// 1-D Laplacian values over a tridiagonal pattern, diagonally
    /// dominant so Jacobi-BiCGSTAB converges fast.
    fn laplacian_case(n: usize) -> (Arc<SparsityPattern>, Vec<f64>, Vec<f64>) {
        let mut coords = Vec::new();
        for r in 0..n {
            if r > 0 {
                coords.push((r, r - 1));
            }
            coords.push((r, r));
            if r + 1 < n {
                coords.push((r, r + 1));
            }
        }
        let pattern = Arc::new(SparsityPattern::from_coords(n, &coords).unwrap());
        let mut values = Vec::with_capacity(pattern.nnz());
        for r in 0..n {
            if r > 0 {
                values.push(-1.0);
            }
            values.push(4.0);
            if r + 1 < n {
                values.push(-1.0);
            }
        }
        let rhs = vec![1.0; n];
        (pattern, values, rhs)
    }

    fn items_of(values: &[f64], rhs: &[f64], count: usize) -> Vec<BatchItem> {
        (0..count as u64)
            .map(|id| BatchItem {
                id,
                values: values.to_vec(),
                rhs: rhs.to_vec(),
                guess: None,
                tolerance: None,
            })
            .collect()
    }

    #[test]
    fn engine_solves_a_batch_on_the_first_rung() {
        let (pattern, values, rhs) = laplacian_case(32);
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), cfg(1e-10, 200));
        let report = engine.solve_batch(&items_of(&values, &rhs, 4)).unwrap();
        assert_eq!(report.outcomes.len(), 4);
        for o in &report.outcomes {
            assert!(o.converged, "system {} residual {}", o.id, o.residual);
            assert_eq!(o.method, SolveMethod::Bicgstab);
            assert_eq!(o.rungs.len(), 1, "healthy systems climb no rungs");
            assert!(o.residual <= 1e-10);
        }
        assert!(report.sim_time_s > 0.0);
    }

    #[test]
    fn sim_split_decomposes_the_dispatch() {
        let (pattern, values, rhs) = laplacian_case(32);
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), cfg(1e-10, 200));
        let report = engine.solve_batch(&items_of(&values, &rhs, 4)).unwrap();
        let s = report.split;
        assert!(s.spmv_us > 0.0, "compute component present");
        assert!(s.sync_us > 0.0, "barrier component present");
        assert!(s.transfer_us > 0.0, "h2d + d2h priced");
        assert!(s.reduction_us >= 0.0);
        // The kernel components reassemble the simulated kernel time; the
        // transfer component sits on top of it.
        let kernel_us = s.spmv_us + s.sync_us + s.reduction_us;
        assert!(
            (kernel_us - report.sim_time_s * 1e6).abs() < 1e-6,
            "kernel split {kernel_us} vs sim_time {}",
            report.sim_time_s * 1e6
        );
        let per = s.per_item(4);
        assert!((per.total_us() * 4.0 - s.total_us()).abs() < 1e-9);
    }

    #[test]
    fn starved_bicgstab_escalates_to_gmres() {
        let (pattern, values, rhs) = laplacian_case(24);
        // One BiCGSTAB iteration cannot reach 1e-10, but GMRES with
        // restart >= n solves the system exactly within one cycle.
        let mut c = cfg(1e-10, 1);
        c.gmres_restart = 32;
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), c);
        let report = engine.solve_batch(&items_of(&values, &rhs, 1)).unwrap();
        let o = &report.outcomes[0];
        assert!(o.converged);
        assert_eq!(o.method, SolveMethod::Gmres);
        assert_eq!(o.rungs.len(), 2);
        assert_eq!(o.rungs[0].method, SolveMethod::Bicgstab);
        assert!(!o.rungs[0].converged);
        assert_eq!(o.rungs[1].method, SolveMethod::Gmres);
        assert!(
            o.iterations > o.rungs[0].iterations,
            "iterations accumulate"
        );
    }

    #[test]
    fn starved_iterative_rungs_fall_through_to_lu() {
        let (pattern, values, rhs) = laplacian_case(64);
        // Cripple both iterative rungs: the direct rung must rescue it.
        let mut c = cfg(1e-12, 1);
        c.gmres_restart = 2;
        c.gmres_max_iters = 2;
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), c);
        let report = engine.solve_batch(&items_of(&values, &rhs, 1)).unwrap();
        let o = &report.outcomes[0];
        assert!(o.converged, "direct rung must rescue the request");
        assert_eq!(o.method, SolveMethod::BandedLuFallback);
        assert_eq!(o.rungs.len(), 3, "all three rungs attempted");
        assert!(o.residual < 1e-8, "direct solve residual {}", o.residual);
    }

    #[test]
    fn ladder_disabled_reports_not_converged() {
        let (pattern, values, rhs) = laplacian_case(64);
        let mut c = cfg(1e-12, 1);
        c.enable_gmres = false;
        c.enable_fallback = false;
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), c);
        let report = engine.solve_batch(&items_of(&values, &rhs, 1)).unwrap();
        let o = &report.outcomes[0];
        assert!(!o.converged);
        assert_eq!(o.method, SolveMethod::Bicgstab);
        assert_eq!(o.rungs.len(), 1);
    }

    #[test]
    fn singular_system_fails_every_rung_without_poisoning_neighbors() {
        let (pattern, values, rhs) = laplacian_case(16);
        let mut bad_values = values.clone();
        // Zero out row 5 entirely: structurally singular.
        let (lo, hi) = pattern.row_range(5);
        for v in &mut bad_values[lo..hi] {
            *v = 0.0;
        }
        let mut items = items_of(&values, &rhs, 3);
        items[1].values = bad_values;
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), cfg(1e-10, 50));
        let report = engine.solve_batch(&items).unwrap();
        assert!(report.outcomes[0].converged);
        assert!(report.outcomes[2].converged);
        let bad = &report.outcomes[1];
        assert!(!bad.converged, "singular system cannot converge");
        assert!(bad.breakdown.is_some());
        assert_eq!(bad.rungs.len(), 3, "ladder exhausted");
        assert!(
            bad.x.iter().all(|v| v.is_finite()),
            "failed outcome still returns finite x"
        );
        // Healthy neighbors solve to the same answer as a clean batch.
        let clean = engine.solve_batch(&items_of(&values, &rhs, 3)).unwrap();
        assert_eq!(report.outcomes[0].x, clean.outcomes[0].x);
        assert_eq!(report.outcomes[2].x, clean.outcomes[2].x);
    }

    #[test]
    fn tightest_member_tolerance_wins() {
        let (pattern, values, rhs) = laplacian_case(16);
        let mut c = cfg(1e-4, 200);
        c.enable_gmres = false;
        c.enable_fallback = false;
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), c);
        let items: Vec<BatchItem> = [None, Some(1e-11)]
            .into_iter()
            .enumerate()
            .map(|(id, tolerance)| BatchItem {
                id: id as u64,
                values: values.clone(),
                rhs: rhs.clone(),
                guess: None,
                tolerance,
            })
            .collect();
        assert_eq!(engine.effective_tolerance(&items), 1e-11);
        let report = engine.solve_batch(&items).unwrap();
        for o in &report.outcomes {
            assert!(o.converged);
            assert!(o.residual <= 1e-11, "residual {} too loose", o.residual);
        }
    }

    #[test]
    fn traced_engine_emits_rung_spans_and_launch_timeline() {
        use batsolv_trace::MemorySink;
        let sink = Arc::new(MemorySink::new());
        let (pattern, values, rhs) = laplacian_case(16);
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), cfg(1e-10, 200))
            .with_tracer(Tracer::new(sink.clone()));
        engine.solve_batch(&items_of(&values, &rhs, 2)).unwrap();
        let events = sink.snapshot();
        let count =
            |pred: &dyn Fn(&EventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();
        assert_eq!(
            count(&|k| matches!(k, EventKind::RungBegin { rung: 1, .. })),
            2
        );
        assert_eq!(
            count(&|k| matches!(
                k,
                EventKind::RungEnd {
                    rung: 1,
                    converged: true,
                    ..
                }
            )),
            2
        );
        assert_eq!(
            count(&|k| matches!(k, EventKind::KernelLaunch { .. })),
            1,
            "healthy batch pays exactly one launch"
        );
        assert_eq!(count(&|k| matches!(k, EventKind::Transfer { .. })), 2);
        assert!(
            count(&|k| matches!(k, EventKind::SolverIteration { rung: 1, .. })) > 0,
            "per-iteration residuals bridge through the TraceLogger"
        );
        // Iteration events carry the owning request's id.
        assert!(events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SolverIteration { .. }))
            .all(|e| matches!(e.trace_id, Some(0) | Some(1))));
    }

    #[test]
    fn escalation_traces_every_rung_and_launch() {
        use batsolv_trace::MemorySink;
        let sink = Arc::new(MemorySink::new());
        let (pattern, values, rhs) = laplacian_case(64);
        let mut c = cfg(1e-12, 1);
        c.gmres_restart = 2;
        c.gmres_max_iters = 2;
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), c)
            .with_tracer(Tracer::new(sink.clone()));
        engine.solve_batch(&items_of(&values, &rhs, 1)).unwrap();
        let events = sink.snapshot();
        let launches: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::KernelLaunch { seq, .. } => Some(seq),
                _ => None,
            })
            .collect();
        assert_eq!(launches, vec![0, 1, 2], "one launch per rung, ordered seq");
        for rung in 1..=3u8 {
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e.kind, EventKind::RungBegin { rung: r, .. } if r == rung)),
                "rung {rung} begin missing"
            );
        }
    }

    #[test]
    fn device_fail_hook_fails_the_whole_launch() {
        struct AlwaysFail;
        impl LaunchHook for AlwaysFail {
            fn disrupt(&self, _ids: &[u64]) -> LaunchDisruption {
                LaunchDisruption::DeviceFail { code: "test_fail" }
            }
        }
        let (pattern, values, rhs) = laplacian_case(8);
        let engine = LadderEngine::with_hook(
            DeviceSpec::v100(),
            Arc::clone(&pattern),
            cfg(1e-10, 50),
            Arc::new(AlwaysFail),
        );
        match engine.solve_batch(&items_of(&values, &rhs, 2)) {
            Err(Error::DeviceFailure { code }) => assert_eq!(code, "test_fail"),
            other => panic!("expected DeviceFailure, got {other:?}"),
        }
    }
}
