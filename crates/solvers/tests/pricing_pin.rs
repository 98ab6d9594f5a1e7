//! Exact pins on the simulated pricing of every iterative solver.
//!
//! `batsolv-bench --check` gates the sim clock one-sided at 25%, so a
//! pricing drop, or a rise under the tolerance, passes it. These tests
//! pin the pricing bit for bit instead:
//!
//! * **digests** — each solver's [`BatchSolveReport`] on a seeded
//!   nonsymmetric stencil batch, for {CSR, column-major ELL} × {`Jacobi`,
//!   `Ilu0`}, folded into one FNV-1a digest: kernel `time_s` bits, syncs,
//!   reductions, the workspace plan, and per-system iterations and
//!   residual bits. `syncs_per_iteration` is left out: it is what the
//!   report *says*, checked against what the launch was priced with by
//!   the second test;
//! * **reported barriers** — between two iteration caps the priced
//!   `kernel.syncs` grows by exactly `syncs_per_iteration` per extra
//!   iteration, under a pointwise and a level-scheduled preconditioner.

use std::sync::Arc;

use batsolv_formats::{
    BatchCsr, BatchEll, BatchMatrix, BatchVectors, SparsityPattern, ValueLayout,
};
use batsolv_gpusim::DeviceSpec;
use batsolv_solvers::{
    BatchBicgstab, BatchCg, BatchCgs, BatchGmres, BatchRichardson, BatchSolveReport, Ilu0,
    IterativeSolver, Jacobi, PipelinedBicgstab, PipelinedCg, Preconditioner, RelResidual,
};

const NX: usize = 8;
const NY: usize = 7;
const NS: usize = 6;

fn pattern() -> Arc<SparsityPattern> {
    Arc::new(SparsityPattern::stencil_2d(NX, NY, true))
}

/// A seeded, diagonally dominant, nonsymmetric stencil batch.
fn batch() -> BatchCsr<f64> {
    let mut m = BatchCsr::zeros(NS, pattern()).unwrap();
    for s in 0..NS {
        m.fill_system(s, |r, c| {
            let h = 401usize
                .wrapping_mul(2654435761)
                .wrapping_add(s * 8191 + r * 131 + c * 17);
            let v = (h % 1000) as f64 / 1000.0 - 0.5;
            if r == c {
                9.0 + v
            } else {
                -0.7 + 0.5 * v
            }
        });
    }
    m
}

/// Something to do with each of the seven iterative solvers.
trait Visit {
    fn visit<S: IterativeSolver<f64>>(&mut self, solver: &S);
}

/// Run `v` over all seven iterative solvers under `precond`, each
/// stopping at relative residual `tol` or after `max_iters`.
fn each_solver<P: Preconditioner<f64>, V: Visit>(
    precond: P,
    tol: f64,
    max_iters: usize,
    v: &mut V,
) {
    let stop = RelResidual::new(tol);
    let p = || precond.clone();
    v.visit(&BatchBicgstab::new(p(), stop).with_max_iters(max_iters));
    v.visit(&PipelinedBicgstab::new(p(), stop).with_max_iters(max_iters));
    v.visit(&BatchCg::new(p(), stop).with_max_iters(max_iters));
    v.visit(&PipelinedCg::new(p(), stop).with_max_iters(max_iters));
    v.visit(&BatchCgs::new(p(), stop).with_max_iters(max_iters));
    v.visit(&BatchGmres::new(p(), stop, 10).with_max_iters(max_iters));
    v.visit(&BatchRichardson::new(p(), stop, 1.0).with_max_iters(max_iters));
}

/// FNV-1a over the priced fields of a report.
fn digest(rep: &BatchSolveReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&rep.kernel.time_s.to_bits().to_le_bytes());
    eat(&rep.kernel.syncs.to_le_bytes());
    eat(&rep.kernel.reductions.to_le_bytes());
    eat(rep.plan_description.as_bytes());
    eat(&(rep.shared_per_block as u64).to_le_bytes());
    eat(&(rep.global_vector_bytes as u64).to_le_bytes());
    for s in &rep.per_system {
        eat(&s.iterations.to_le_bytes());
        eat(&s.residual.to_bits().to_le_bytes());
    }
    h
}

struct Digests<'a, M> {
    a: &'a M,
    b: &'a BatchVectors<f64>,
    tag: &'static str,
    out: Vec<(String, u64)>,
}

impl<M: BatchMatrix<f64>> Visit for Digests<'_, M> {
    fn visit<S: IterativeSolver<f64>>(&mut self, solver: &S) {
        let mut x = BatchVectors::zeros(self.a.dims());
        let rep = solver
            .solve_batch(&DeviceSpec::v100(), self.a, self.b, &mut x)
            .unwrap();
        let key = format!("{}/{}/{}", solver.name(), rep.format, self.tag);
        self.out.push((key, digest(&rep)));
    }
}

fn digests_on<M: BatchMatrix<f64>>(a: &M, b: &BatchVectors<f64>) -> Vec<(String, u64)> {
    let mut d = Digests {
        a,
        b,
        tag: "jacobi",
        out: Vec::new(),
    };
    each_solver(Jacobi, 1e-10, 500, &mut d);
    d.tag = "ilu0";
    each_solver(Ilu0::new(pattern()), 1e-10, 500, &mut d);
    d.out
}

/// Recorded before the seven solvers shared one launch shell; a change
/// here is a change to the simulated clock and must be explained.
const PINNED: [(&str, u64); 28] = [
    ("bicgstab/BatchCsr/jacobi", 0x5199bc31bee58250),
    ("pipelined-bicgstab/BatchCsr/jacobi", 0x78c4f67f96503691),
    ("cg/BatchCsr/jacobi", 0xdae529d120789eee),
    ("pipelined-cg/BatchCsr/jacobi", 0xffb1bad7e55ee8f9),
    ("cgs/BatchCsr/jacobi", 0xc710dd94c103327a),
    ("gmres/BatchCsr/jacobi", 0xdbed96c82a599bec),
    ("richardson/BatchCsr/jacobi", 0xa561b6377ab147a4),
    ("bicgstab/BatchCsr/ilu0", 0xe8bd17687ff1a4b1),
    ("pipelined-bicgstab/BatchCsr/ilu0", 0xbfad06dc8f755e7a),
    ("cg/BatchCsr/ilu0", 0xd4cca4e56f0bcfea),
    ("pipelined-cg/BatchCsr/ilu0", 0x4192682c25c20a33),
    ("cgs/BatchCsr/ilu0", 0x5ae9238bf87a2935),
    ("gmres/BatchCsr/ilu0", 0x14282bc825069441),
    ("richardson/BatchCsr/ilu0", 0xba03a7bf27bd4889),
    ("bicgstab/BatchEll/jacobi", 0x27d6efdc13c204f1),
    ("pipelined-bicgstab/BatchEll/jacobi", 0x123501db05a45482),
    ("cg/BatchEll/jacobi", 0x640b18005c557e84),
    ("pipelined-cg/BatchEll/jacobi", 0xe4238f8757ac3a7c),
    ("cgs/BatchEll/jacobi", 0x1bcb6a7eedf5fa23),
    ("gmres/BatchEll/jacobi", 0x8dd7347303d0fe5b),
    ("richardson/BatchEll/jacobi", 0x1651e85765930a4e),
    ("bicgstab/BatchEll/ilu0", 0x4fb780af066fb242),
    ("pipelined-bicgstab/BatchEll/ilu0", 0x9817f2822f3bb744),
    ("cg/BatchEll/ilu0", 0xc91302199b78a7aa),
    ("pipelined-cg/BatchEll/ilu0", 0xde93f6d5bc2f30b5),
    ("cgs/BatchEll/ilu0", 0x50a2fc1da0e50d19),
    ("gmres/BatchEll/ilu0", 0x75618778192a61ed),
    ("richardson/BatchEll/ilu0", 0xfd7f9f9691439d46),
];

#[test]
fn every_solver_prices_bit_for_bit_as_pinned() {
    let csr = batch();
    let ell = BatchEll::from_csr_in(&csr, ValueLayout::ColMajor).unwrap();
    let b = BatchVectors::from_fn(csr.dims(), |s, r| ((s * 53 + r * 7) as f64 * 0.093).cos());
    let mut got = digests_on(&csr, &b);
    got.extend(digests_on(&ell, &b));
    let table: String = got
        .iter()
        .map(|(k, d)| format!("    (\"{k}\", {d:#018x}),\n"))
        .collect();
    let keys: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
    let pinned_keys: Vec<&str> = PINNED.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, pinned_keys, "solver lineup changed");
    for ((key, d), (_, want)) in got.iter().zip(PINNED) {
        assert_eq!(*d, want, "{key} priced differently; table now:\n{table}");
    }
}

/// A symmetric, weakly dominant stencil: at an unreachable tolerance
/// every solver runs to its cap.
fn slow_system() -> BatchCsr<f64> {
    let mut m = BatchCsr::zeros(1, pattern()).unwrap();
    m.fill_system(0, |r, c| if r == c { 8.2 } else { -1.0 });
    m
}

/// Collects each solver's report on one system.
struct Reports<'a> {
    a: &'a BatchCsr<f64>,
    b: &'a BatchVectors<f64>,
    out: Vec<BatchSolveReport>,
}

impl Visit for Reports<'_> {
    fn visit<S: IterativeSolver<f64>>(&mut self, solver: &S) {
        let mut x = BatchVectors::zeros(self.a.dims());
        let rep = solver
            .solve_batch(&DeviceSpec::v100(), self.a, self.b, &mut x)
            .unwrap();
        self.out.push(rep);
    }
}

/// Run every solver under `precond` capped at k1 and at k2, and compare
/// the priced barrier growth with the reported density.
fn check_sync_growth<P: Preconditioner<f64>>(precond: P, tag: &str) {
    let a = slow_system();
    let b = BatchVectors::from_fn(a.dims(), |_, r| 1.0 + (r % 5) as f64 * 0.1);
    let (k1, k2) = (3u32, 7u32);
    let reports = |cap: u32| {
        let mut v = Reports {
            a: &a,
            b: &b,
            out: Vec::new(),
        };
        each_solver(precond.clone(), 1e-300, cap as usize, &mut v);
        v.out
    };
    let (short, long) = (reports(k1), reports(k2));
    for (r1, r2) in short.iter().zip(&long) {
        let who = format!("{} under {tag}", r1.solver);
        assert_eq!(r1.max_iterations(), k1, "{who} stopped before {k1}");
        assert_eq!(r2.max_iterations(), k2, "{who} stopped before {k2}");
        let grown = r2.kernel.syncs - r1.kernel.syncs;
        assert_eq!(
            grown as f64,
            r2.syncs_per_iteration * (k2 - k1) as f64,
            "{who}: priced {grown} barriers over {} iterations, reports {} per iteration",
            k2 - k1,
            r2.syncs_per_iteration
        );
    }
}

#[test]
fn reported_syncs_per_iteration_match_the_priced_barriers() {
    check_sync_growth(Jacobi, "jacobi");
    check_sync_growth(Ilu0::new(pattern()), "ilu0");
}
