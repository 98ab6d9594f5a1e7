//! The engine's iterative rungs solve on column-major `BatchEll` built on
//! one shared index. Before that they solved on `BatchCsr`. This
//! differential pins the two together bit for bit: the same solvers, stop
//! rule and caps run on a `BatchCsr` of the same values must give the
//! engine's solutions, iterations and residuals exactly. It covers XGC
//! batches of 1, 4 and 64, traced and untraced, for both serving-menu
//! variants, and the GMRES rung.

use std::sync::Arc;

use batsolv_formats::{BatchCsr, BatchVectors};
use batsolv_gpusim::DeviceSpec;
use batsolv_runtime::dispatcher::{csr_batch, stack_rhs};
use batsolv_runtime::{BatchItem, LadderConfig, LadderEngine, SolveEngine, SolverVariant};
use batsolv_solvers::{AbsResidual, BatchBicgstab, BatchGmres, Jacobi, PipelinedBicgstab};
use batsolv_trace::{MemorySink, Tracer};
use batsolv_xgc::{VelocityGrid, XgcWorkload};

/// One system's result: solution, iterations, residual, converged.
type Solved = (Vec<f64>, u32, f64, bool);

/// The first `count` systems of the workload (ion and electron
/// interleaved), warm-started as XGC's Picard loop does.
fn items(workload: &XgcWorkload, count: usize) -> Vec<BatchItem> {
    (0..count)
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
        .collect()
}

/// The members' operator on CSR, their right-hand sides and iterates.
fn csr_system(
    workload: &XgcWorkload,
    members: &[&BatchItem],
    x0: impl Fn(usize) -> Vec<f64>,
) -> (BatchCsr<f64>, BatchVectors<f64>, BatchVectors<f64>) {
    let pattern = workload.pattern();
    let a = csr_batch(pattern, members.iter().copied()).unwrap();
    let b = stack_rhs(pattern.num_rows(), members.iter().copied()).unwrap();
    let x = BatchVectors::from_values(b.dims(), (0..members.len()).flat_map(x0).collect());
    (a, b, x.unwrap())
}

/// The ladder's iterative rungs on CSR, as the engine ran them before it
/// moved to ELL: rung 1 over the batch, then GMRES over what rung 1 left
/// unconverged, started from rung 1's iterate.
fn csr_reference(workload: &XgcWorkload, cfg: &LadderConfig, items: &[BatchItem]) -> Vec<Solved> {
    let device = DeviceSpec::v100();
    let stop = AbsResidual::new(cfg.default_tolerance);
    let all: Vec<&BatchItem> = items.iter().collect();
    let (a, b, mut x) = csr_system(workload, &all, |k| items[k].guess.clone().unwrap());
    let report = match cfg.solver {
        SolverVariant::Bicgstab => BatchBicgstab::new(Jacobi, stop)
            .with_max_iters(cfg.max_iters)
            .with_fused_axpy(true)
            .solve(&device, &a, &b, &mut x),
        SolverVariant::PipelinedBicgstab => PipelinedBicgstab::new(Jacobi, stop)
            .with_max_iters(cfg.max_iters)
            .solve(&device, &a, &b, &mut x),
    }
    .unwrap();
    let mut out: Vec<Solved> = report
        .per_system
        .iter()
        .enumerate()
        .map(|(k, r)| (x.system(k).to_vec(), r.iterations, r.residual, r.converged))
        .collect();

    let sub: Vec<usize> = (0..items.len()).filter(|&k| !out[k].3).collect();
    if cfg.enable_gmres && !sub.is_empty() {
        let members: Vec<&BatchItem> = sub.iter().map(|&k| &items[k]).collect();
        let (a, b, mut x) = csr_system(workload, &members, |j| out[sub[j]].0.clone());
        let report = BatchGmres::new(Jacobi, stop, cfg.gmres_restart)
            .with_max_iters(cfg.gmres_max_iters)
            .solve(&device, &a, &b, &mut x)
            .unwrap();
        for (j, (&k, r)) in sub.iter().zip(&report.per_system).enumerate() {
            out[k].1 += r.iterations;
            if r.converged {
                out[k] = (x.system(j).to_vec(), out[k].1, r.residual, true);
            }
        }
    }
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Run the engine (traced and untraced) and check every outcome against
/// the CSR reference, bit for bit.
fn check(workload: &XgcWorkload, cfg: LadderConfig, count: usize) {
    let items = items(workload, count);
    let reference = csr_reference(workload, &cfg, &items);
    for traced in [false, true] {
        let mut engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(workload.pattern()), cfg);
        if traced {
            engine = engine.with_tracer(Tracer::new(Arc::new(MemorySink::new())));
        }
        let report = engine.solve_batch(&items).unwrap();
        let case = format!("{} x{count} traced={traced}", cfg.solver.name());
        assert_eq!(report.outcomes.len(), count, "{case}");
        for (k, (o, (x, iterations, residual, converged))) in
            report.outcomes.iter().zip(&reference).enumerate()
        {
            assert!(
                o.converged && *converged,
                "{case}: system {k} must converge"
            );
            assert_eq!(o.iterations, *iterations, "{case}: system {k} iterations");
            assert_eq!(
                o.residual.to_bits(),
                residual.to_bits(),
                "{case}: system {k} residual {} vs {residual}",
                o.residual
            );
            assert!(
                bits(&o.x) == bits(x),
                "{case}: system {k} solution bits differ"
            );
        }
    }
}

#[test]
fn the_engine_on_ell_matches_the_csr_path_bit_for_bit() {
    let workload = XgcWorkload::generate(VelocityGrid::xgc_standard(), 32, 20220530).unwrap();
    for solver in [SolverVariant::Bicgstab, SolverVariant::PipelinedBicgstab] {
        let cfg = LadderConfig {
            solver,
            ..LadderConfig::default()
        };
        for count in [1, 4, 64] {
            check(&workload, cfg, count);
        }
    }
}

#[test]
fn the_gmres_rung_on_ell_matches_the_csr_path_bit_for_bit() {
    let workload = XgcWorkload::generate(VelocityGrid::xgc_standard(), 2, 7).unwrap();
    for solver in [SolverVariant::Bicgstab, SolverVariant::PipelinedBicgstab] {
        // Two rung-1 iterations leave the electron systems to GMRES.
        let cfg = LadderConfig {
            solver,
            max_iters: 2,
            enable_fallback: false,
            ..LadderConfig::default()
        };
        let items = items(&workload, 4);
        let rung1_misses = csr_reference(
            &workload,
            &LadderConfig {
                enable_gmres: false,
                ..cfg
            },
            &items,
        )
        .iter()
        .filter(|s| !s.3)
        .count();
        assert!(rung1_misses > 0, "{}: GMRES must run", solver.name());
        check(&workload, cfg, 4);
    }
}
