//! `picard`: the XGC proxy's implicit collision step, closed loop.
//!
//! Each step is `CollisionProxy::run_picard` (5 Picard sweeps over 32 mesh
//! nodes × {ion, electron}, BiCGSTAB + Jacobi on `BatchEll`, tol 1e-10,
//! warm start, V100 pricing); the next step starts when the previous one
//! returns. A run repeats fixed-length episodes from the seeded initial
//! state, so every run does the same mix of steps however fast it goes.
//!
//! The traced run replays each step through the same public calls
//! (`assemble_combined` → `BatchEll::from_csr` → `run_numerics` →
//! `price_results` → `deinterleave`) inside spans, next to an untraced
//! `run_picard` on a copy of the state, and checks the two iterates are
//! bitwise identical.

use std::time::{Duration, Instant};

use batsolv_formats::BatchVectors;
use batsolv_gpusim::DeviceSpec;
use batsolv_types::Result;
use batsolv_xgc::picard::{ProxyState, SolverKind};
use batsolv_xgc::{CollisionProxy, Moments};

use crate::probes::{self, SolveRecord};
use crate::report::{
    self, best_window, median, ms, quantile, timed, HostProbe, Outcome, DRIFT_LIMIT,
};
use crate::spans::Recorder;
use crate::Options;

/// Mesh nodes per batch: 32 × {ion, electron} = 64 systems per sweep.
pub const MESH_NODES: usize = 32;
/// Implicit steps per episode.
pub const STEPS_PER_EPISODE: usize = 4;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 21;
/// Fewest steps a best-of-windows window holds: four whole episodes.
const WINDOW_MIN: usize = 4 * STEPS_PER_EPISODE;

fn build(opts: &Options) -> (CollisionProxy, ProxyState) {
    let proxy = CollisionProxy::new(opts.grid, MESH_NODES);
    let state = proxy.initial_state(opts.seed);
    (proxy, state)
}

/// Conserved density of one species summed over mesh nodes.
fn density(proxy: &CollisionProxy, f: &BatchVectors<f64>) -> f64 {
    (0..proxy.num_mesh_nodes)
        .map(|node| Moments::compute(&proxy.grid, f.system(node)).density)
        .sum()
}

/// What a replayed step leaves for the checks made after it.
struct Replay {
    /// Per sweep: the solve and its solution.
    sweeps: Vec<(SolveRecord, BatchVectors<f64>)>,
    /// The right-hand side every sweep solved against.
    rhs: BatchVectors<f64>,
    /// Relative density drift per species over the step.
    drift: [f64; 2],
}

/// One implicit step through the public calls, each inside a span under
/// a `picard.step` span.
fn replay_step(
    rec: &mut Recorder,
    step: u64,
    proxy: &CollisionProxy,
    device: &DeviceSpec,
    state: &mut ProxyState,
) -> Result<Replay> {
    let solver = probes::solver(proxy.tolerance);
    let root = rec.enter("picard.step", step);
    let f_n = rec.time("xgc.interleave", step, || proxy.interleave(state));
    let d0 = rec.time("xgc.moments", step, || {
        [density(proxy, &state.f[0]), density(proxy, &state.f[1])]
    });
    let mut iterate = state.clone();
    let mut sweeps = Vec::with_capacity(proxy.picard_iterations);
    for _ in 0..proxy.picard_iterations {
        let matrices = rec.time("xgc.assemble", step, || proxy.assemble_combined(&iterate))?;
        let mut x = rec.time("xgc.interleave", step, || proxy.interleave(&iterate));
        let solve = probes::ell_solve(rec, step, device, &solver, &matrices, &f_n, &mut x)?;
        iterate = rec.time("xgc.deinterleave", step, || proxy.deinterleave(&x));
        sweeps.push((solve, x));
    }
    let d1 = rec.time("xgc.moments", step, || {
        [density(proxy, &iterate.f[0]), density(proxy, &iterate.f[1])]
    });
    *state = iterate;
    rec.exit(root);
    Ok(Replay {
        sweeps,
        rhs: f_n,
        drift: [0, 1].map(|s| ((d1[s] - d0[s]) / d0[s]).abs()),
    })
}

fn check_drift(out: &mut Outcome, what: &str, drift: [f64; 2]) {
    if !(drift[0] <= DRIFT_LIMIT && drift[1] <= DRIFT_LIMIT) {
        out.miss(format!("{what}: density drift {drift:?} > {DRIFT_LIMIT:e}"));
    }
}

fn check_same(out: &mut Outcome, what: &str, a: &ProxyState, b: &ProxyState) {
    let same = (0..2).all(|s| {
        let (x, y) = (a.f[s].values(), b.f[s].values());
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    });
    if !same {
        out.miss(format!(
            "{what}: replayed iterate differs from run_picard's"
        ));
    }
}

/// Replay one episode, checking every system's true residual, the
/// density drift and bitwise agreement with `run_picard`. Runs before the
/// timed loop (it doubles as the warm-up); since every episode starts
/// from the same state and the numerics are deterministic, it covers
/// every system the timed loop solves.
fn verify_episode(
    out: &mut Outcome,
    proxy: &CollisionProxy,
    init: &ProxyState,
    device: &DeviceSpec,
) -> Result<f64> {
    let mut rec = Recorder::new(Instant::now());
    let mut replayed = init.clone();
    let mut direct = init.clone();
    let mut worst = 0.0f64;
    for step in 0..STEPS_PER_EPISODE {
        let what = format!("picard step {step}");
        let replay = replay_step(&mut rec, step as u64, proxy, device, &mut replayed)?;
        for (k, (solve, x)) in replay.sweeps.iter().enumerate() {
            worst = worst.max(probes::check_residuals(
                out,
                &format!("{what} sweep {k}"),
                proxy.tolerance,
                &solve.ell,
                &replay.rhs,
                x,
            ));
        }
        check_drift(out, &format!("{what} (replayed)"), replay.drift);
        let report = proxy.run_picard(&mut direct, device, SolverKind::BicgstabEll, true)?;
        check_drift(out, &what, report.density_drift);
        check_same(out, &what, &direct, &replayed);
    }
    Ok(worst)
}

pub fn run(opts: &Options, out: &mut Outcome) -> Result<Recorder> {
    let host = HostProbe::start();
    let device = DeviceSpec::v100();
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);

    let (proxy, init) = report::set_up_repeatedly(
        out,
        SETUP_REPS,
        || {
            let (built, d) = timed(|| build(opts));
            Ok((built, ms(d)))
        },
        drop,
    )?;

    let residual_max = verify_episode(out, &proxy, &init, &device)?;

    let loop_start = Instant::now();
    let deadline = loop_start + opts.seconds;
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut sims = Vec::new();
    let mut lags = Vec::new();
    let mut drift_max = 0.0f64;
    let mut table: Vec<[f64; 2]> = Vec::new();
    let mut solves: Vec<SolveRecord> = Vec::new();
    let mut episodes = 0;
    let mut last_return: Option<Instant> = None;
    while episodes == 0 || Instant::now() < deadline {
        let mut state = init.clone();
        let mut replayed = init.clone();
        for step in 0..STEPS_PER_EPISODE {
            let id = (episodes * STEPS_PER_EPISODE + step) as u64;
            let started = Instant::now();
            if let Some(prev) = last_return {
                lags.push(ms(started - prev));
            }
            let report = proxy.run_picard(&mut state, &device, SolverKind::BicgstabEll, true)?;
            walls.push(ms(started.elapsed()));
            out.attempted += 1;
            sims.push(report.total_solve_time_s * 1e3);
            drift_max = drift_max.max(report.density_drift[0].max(report.density_drift[1]));
            check_drift(out, &format!("picard step {id}"), report.density_drift);
            if id == 0 {
                for it in &report.iterations {
                    table.push([it.linear_iters[0].mean, it.linear_iters[1].mean]);
                }
            }
            if opts.traced {
                let t = Instant::now();
                let replay = replay_step(&mut rec, id, &proxy, &device, &mut replayed)?;
                traced_walls.push((ms(t.elapsed()), id));
                check_same(out, &format!("picard step {id}"), &state, &replayed);
                solves.extend(replay.sweeps.into_iter().map(|(s, _)| s));
                // Keep memory flat: one episode of solve records is enough
                // for the per-sweep layer metrics.
                let keep = STEPS_PER_EPISODE * proxy.picard_iterations;
                if solves.len() > keep {
                    solves.drain(..solves.len() - keep);
                }
            }
            last_return = Some(Instant::now());
        }
        episodes += 1;
    }

    let loop_s = loop_start.elapsed().as_secs_f64();
    let step_ms = median(&walls);
    out.e2e("max_rate_rps", walls.len() as f64 / loop_s, "1/s");
    out.e2e(
        "p50_ms",
        best_window(&walls, WINDOW_MIN, STEPS_PER_EPISODE, 0.5),
        "ms",
    );
    out.e2e(
        "tail_ms",
        best_window(&walls, WINDOW_MIN, STEPS_PER_EPISODE, 0.9),
        "ms",
    );
    out.info("step_ms", step_ms, "ms");
    out.info("step_p90_ms", quantile(&walls, 0.9), "ms");
    out.info("step_samples", walls.len() as f64, "count");
    out.info("step_sim_ms", median(&sims), "ms");
    out.info("episodes", episodes as f64, "count");
    let column =
        |s: usize| -> Vec<String> { table.iter().map(|t| format!("{:.1}", t[s])).collect() };
    out.note(format!(
        "Table III, first step, mean iterations per sweep: ion [{}], electron [{}]",
        column(0).join(", "),
        column(1).join(", ")
    ));

    out.layer("xgc.density_drift", drift_max, "ratio");
    out.residual_max = out.residual_max.max(residual_max);
    out.lag_ms = lags;
    if opts.traced {
        out.layer(
            "xgc.assemble_ms",
            median(&rec.durations_ms("xgc.assemble")),
            "ms",
        );
        probes::solve_layer_metrics(out, &rec, &solves);
        let last = solves.last().expect("a traced step ran");
        let rhs = proxy.interleave(&init);
        let solver = probes::solver(proxy.tolerance);
        probes::kernel_probes(out, &mut rec, &device, &solver, &last.ell, &rhs, &rhs)?;
        step_balance(out, &rec, &traced_walls);
        out.layer(
            "trace.overhead",
            median(&traced_walls.iter().map(|w| w.0).collect::<Vec<_>>()) / step_ms,
            "ratio",
        );
    }
    host.finish(out);
    Ok(rec)
}

/// Span self-times plus the step's explicit residual (its own self time:
/// clones and loop glue outside any child span) must add up to the step
/// wall time measured outside the recorder. Steps that do not, or whose
/// spans do not nest, are balance violations.
fn step_balance(out: &mut Outcome, rec: &Recorder, traced_walls: &[(f64, u64)]) {
    let own = rec.self_times();
    let spans = rec.spans();
    let mut violations = rec.nesting_violations();
    let mut residual_share = Vec::new();
    for &(wall_ms, id) in traced_walls {
        let mut sum = Duration::ZERO;
        let mut residual = None;
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.request == id) {
            sum += own[i];
            if s.name == "picard.step" {
                residual = Some(own[i]);
            }
        }
        let Some(residual) = residual else {
            violations += 1;
            continue;
        };
        residual_share.push(ms(residual) / wall_ms);
        // The recorder and the outer clock read time at slightly
        // different instants; 1% of the step or 0.5 ms covers that.
        if (ms(sum) - wall_ms).abs() > (0.01 * wall_ms).max(0.5) {
            violations += 1;
        }
    }
    out.balance_violations += violations as u64;
    out.layer("trace.residual_share", median(&residual_share), "ratio");
}
