//! Criterion wall-clock benchmarks of the numeric kernels themselves
//! (the simulated-device timings live in the `repro` binary; these
//! measure what the Rust implementations actually cost on the host).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use batsolv_formats::{BatchBanded, BatchMatrix, BatchVectors};
use batsolv_gpusim::DeviceSpec;
use batsolv_solvers::direct::banded_lu::{gbtrf, gbtrs};
use batsolv_solvers::{AbsResidual, BatchBicgstab, Jacobi};
use batsolv_xgc::{Moments, Species, VelocityGrid, XgcWorkload};

fn spmv_formats(c: &mut Criterion) {
    let w = XgcWorkload::generate(VelocityGrid::xgc_standard(), 1, 1).unwrap();
    let ell = w.ell().unwrap();
    let banded = w.banded().unwrap();
    let n = 992;
    let x: Vec<f64> = (0..n).map(|k| (k as f64 * 0.01).sin()).collect();
    let mut y = vec![0.0f64; n];

    let mut g = c.benchmark_group("spmv_992");
    g.bench_function("csr", |b| {
        b.iter(|| w.matrices.spmv_system(0, black_box(&x), &mut y))
    });
    g.bench_function("ell", |b| {
        b.iter(|| ell.spmv_system(0, black_box(&x), &mut y))
    });
    g.bench_function("banded", |b| {
        b.iter(|| banded.spmv_system(0, black_box(&x), &mut y))
    });
    g.finish();
}

fn batched_bicgstab(c: &mut Criterion) {
    let w = XgcWorkload::generate(VelocityGrid::xgc_standard(), 4, 2).unwrap();
    let ell = w.ell().unwrap();
    let dev = DeviceSpec::a100();
    let solver = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10));

    let mut g = c.benchmark_group("bicgstab_batch8_n992");
    g.sample_size(10);
    g.bench_function("csr", |b| {
        b.iter_batched(
            || BatchVectors::zeros(w.rhs.dims()),
            |mut x| solver.solve(&dev, &w.matrices, &w.rhs, &mut x).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("ell", |b| {
        b.iter_batched(
            || BatchVectors::zeros(w.rhs.dims()),
            |mut x| solver.solve(&dev, &ell, &w.rhs, &mut x).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn direct_solvers(c: &mut Criterion) {
    let w = XgcWorkload::generate(VelocityGrid::xgc_standard(), 1, 3).unwrap();
    let banded = BatchBanded::from_csr(&w.matrices).unwrap();
    let (n, kl, ku, ldab) = (992, banded.kl(), banded.ku(), banded.ldab());

    let mut g = c.benchmark_group("direct_n992");
    g.sample_size(10);
    g.bench_function("dgbsv_factor_solve", |b| {
        b.iter_batched(
            || (banded.ab_of(0).to_vec(), w.rhs.system(0).to_vec()),
            |(mut ab, mut rhs)| {
                let mut piv = vec![0usize; n];
                gbtrf(n, kl, ku, ldab, &mut ab, &mut piv).unwrap();
                gbtrs(n, kl, ku, ldab, &ab, &piv, &mut rhs);
                rhs
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("givens_qr_solve", |b| {
        b.iter_batched(
            || (banded.ab_of(0).to_vec(), w.rhs.system(0).to_vec()),
            |(mut ab, mut rhs)| {
                batsolv_solvers::direct::sparse_qr::givens_qr_solve(
                    n, kl, ku, ldab, &mut ab, &mut rhs,
                )
                .unwrap();
                rhs
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn operator_assembly(c: &mut Criterion) {
    let grid = VelocityGrid::xgc_standard();
    let pattern = grid.stencil_pattern();
    let species = Species::electron();
    let moments = Moments {
        density: 1.0,
        mean_velocity: 0.1,
        temperature: 1.0,
    };
    let mut vals = vec![0.0f64; pattern.nnz()];
    c.bench_function("assemble_collision_matrix_992", |b| {
        b.iter(|| {
            batsolv_xgc::operator_assembly::assemble_matrix(
                &grid,
                black_box(&species),
                &moments,
                &pattern,
                &mut vals,
            )
        })
    });
}

fn picard_step(c: &mut Criterion) {
    use batsolv_xgc::picard::SolverKind;
    use batsolv_xgc::CollisionProxy;
    let proxy = CollisionProxy::new(VelocityGrid::small(16, 15), 4);
    let dev = DeviceSpec::a100();
    let mut g = c.benchmark_group("picard_4nodes_240rows");
    g.sample_size(10);
    g.bench_function("five_sweeps_warm_ell", |b| {
        b.iter_batched(
            || proxy.initial_state(1),
            |mut state| {
                proxy
                    .run_picard(&mut state, &dev, SolverKind::BicgstabEll, true)
                    .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn eigensolver(c: &mut Criterion) {
    // 240-row nonsymmetric dense eigenproblem (the Figure 2 workload).
    let grid = VelocityGrid::small(16, 15);
    let pattern = grid.stencil_pattern();
    let species = Species::electron();
    let moments = Moments {
        density: 1.0,
        mean_velocity: 0.1,
        temperature: 1.0,
    };
    let mut vals = vec![0.0f64; pattern.nnz()];
    batsolv_xgc::operator_assembly::assemble_matrix(&grid, &species, &moments, &pattern, &mut vals);
    let n = grid.num_nodes();
    let mut dense = vec![0.0f64; n * n];
    for r in 0..n {
        let (bg, en) = pattern.row_range(r);
        for k in bg..en {
            dense[r * n + pattern.col_idxs()[k] as usize] = vals[k];
        }
    }
    let mut g = c.benchmark_group("eigen_240");
    g.sample_size(10);
    g.bench_function("hessenberg_plus_hqr", |b| {
        b.iter(|| batsolv_eigen::eigenvalues(n, black_box(&dense)).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    spmv_formats,
    batched_bicgstab,
    direct_solvers,
    operator_assembly,
    picard_step,
    eigensolver
);
criterion_main!(benches);
