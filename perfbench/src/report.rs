//! Metric records, order statistics, host diagnostics and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use batsolv_types::Result;

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run produced: the metrics of both kinds, the
/// operation counts and every correctness miss.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics the untraced run gates on (`--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Metrics of single layers (`--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Workload-specific figures printed for readers, never gated.
    pub info: Vec<Metric>,
    /// Operations attempted (steps, requests or groups).
    pub attempted: u64,
    /// Operations that failed, were refused, or failed a check.
    pub failed: u64,
    /// One line per failed correctness check.
    pub misses: Vec<String>,
    /// Free-text lines for readers.
    pub notes: Vec<String>,
    /// Worst recomputed true residual over every checked solution.
    pub residual_max: f64,
    /// Iterations of every checked solution.
    pub iterations: Vec<f64>,
    /// Load-generator lateness past each due time, ms.
    pub lag_ms: Vec<f64>,
    /// Traced operations whose spans or phase ledger do not add up.
    pub balance_violations: u64,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    pub fn info(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.info.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record a correctness miss; it counts as a failed operation.
    pub fn miss(&mut self, what: String) {
        self.failed += 1;
        self.misses.push(what);
    }

    pub fn correct(&self) -> bool {
        self.misses.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of the run's kind, as one JSON object.
    pub fn json_line(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// `q`-quantile (0..=1) of `samples` by the nearest-rank rule.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Most windows a run's samples are cut into for best-of-windows figures.
const WINDOWS_MAX: usize = 8;

/// The `q`-quantile of each window of consecutive samples: at most
/// `WINDOWS_MAX` windows of at least `min_len` samples, each a whole
/// number of `align`-long groups (the last takes the remainder).
pub fn windowed(samples: &[f64], min_len: usize, align: usize, q: f64) -> Vec<f64> {
    let n = samples.len();
    let w = (n / min_len).clamp(1, WINDOWS_MAX);
    let len = (n / w / align * align).max(1);
    (0..w)
        .map(|k| {
            let end = if k + 1 == w { n } else { (k + 1) * len };
            quantile(&samples[(k * len).min(end)..end], q)
        })
        .collect()
}

/// Best-of-windows `q`-quantile: the figure of the run's quietest
/// stretch. The host lends its cores to other machines (0–25% steal from
/// one run to the next), and a stalled stretch moves a whole-run
/// percentile by more than any change worth gating; the quietest window
/// does not move with it.
pub fn best_window(samples: &[f64], min_len: usize, align: usize, q: f64) -> f64 {
    windowed(samples, min_len, align, q)
        .into_iter()
        .fold(f64::INFINITY, f64::min)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time `f` once.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Set the workload up `reps` times, tearing each one down before the
/// next, and keep the last. `set_up` returns its value and the time it
/// spent generating inputs, ms. Records `setup_s` (median wall time) and
/// `xgc.generate_ms` (median generation time).
pub fn set_up_repeatedly<T>(
    out: &mut Outcome,
    reps: usize,
    mut set_up: impl FnMut() -> Result<(T, f64)>,
    mut tear_down: impl FnMut(T),
) -> Result<T> {
    let mut walls = Vec::with_capacity(reps);
    let mut generate_ms = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        if let Some(old) = kept.take() {
            tear_down(old);
        }
        let t = Instant::now();
        let (value, gen) = set_up()?;
        walls.push(t.elapsed().as_secs_f64());
        generate_ms.push(gen);
        kept = Some(value);
    }
    out.e2e("setup_s", median(&walls), "s");
    out.note(format!(
        "set-up samples, ms: {:.2?}",
        walls.iter().map(|s| s * 1e3).collect::<Vec<_>>()
    ));
    out.layer("xgc.generate_ms", median(&generate_ms), "ms");
    Ok(kept.expect("at least one set-up ran"))
}

/// Median wall time of a fixed single-threaded floating-point loop, ms:
/// the host's speed at the moment, so a reader can tell a slow run on a
/// busy host from a slow program.
pub fn calibrate() -> f64 {
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let (_, d) = timed(|| {
                let mut acc = 1.0f64;
                let mut x = 0.5f64;
                for _ in 0..4_000_000 {
                    x = x.mul_add(1.000_000_1, 1e-9);
                    acc += x * 1e-12;
                }
                std::hint::black_box(acc)
            });
            ms(d)
        })
        .collect();
    median(&samples)
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks (USER_HZ = 100).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor gave this machine's cores to others.
fn steal_ticks() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0.0, 0.0);
    };
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0.0), ticks.iter().sum())
}

/// Host diagnostics recorded around every run: calibration loop before
/// and after, process CPU utilisation, and the share of the machine's
/// CPU time stolen by the hypervisor.
pub struct HostProbe {
    calib_before_ms: f64,
    cpu0: f64,
    steal0: (f64, f64),
    wall0: Instant,
}

impl HostProbe {
    pub fn start() -> HostProbe {
        let calib_before_ms = calibrate();
        HostProbe {
            calib_before_ms,
            cpu0: cpu_seconds(),
            steal0: steal_ticks(),
            wall0: Instant::now(),
        }
    }

    /// Close the probe and add `host.*` metrics.
    pub fn finish(self, out: &mut Outcome) {
        let cpu_util = (cpu_seconds() - self.cpu0) / self.wall0.elapsed().as_secs_f64();
        let (steal, total) = steal_ticks();
        let steal_share = (steal - self.steal0.0) / (total - self.steal0.1).max(1.0);
        let calib_after_ms = calibrate();
        out.layer("host.calib_ms", self.calib_before_ms, "ms");
        out.layer("host.calib_after_ms", calib_after_ms, "ms");
        out.layer("host.cpu_util", cpu_util, "ratio");
        out.layer("host.steal_share", steal_share, "ratio");
    }
}

/// True residual check: `‖b − Ax‖₂ ≤ RESIDUAL_SLACK · tol` (absolute,
/// like the solvers' stop criterion). The solvers stop on their
/// recurrence residual; the slack admits the rounding gap between that
/// recurrence and the recomputed residual.
pub const RESIDUAL_SLACK: f64 = 2.0;

/// Whether a recomputed residual passes; NaN never does.
pub fn residual_ok(residual: f64, tol: f64) -> bool {
    residual <= RESIDUAL_SLACK * tol
}

/// Largest conserved-density drift per implicit step the paper accepts
/// at tolerance 1e-10.
pub const DRIFT_LIMIT: f64 = 1e-7;

pub fn residual_norm(spmv: impl FnOnce(&[f64], &mut [f64]), b: &[f64], x: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    spmv(x, &mut ax);
    b.iter()
        .zip(&ax)
        .map(|(bi, ai)| (bi - ai) * (bi - ai))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windows_align_and_keep_every_sample() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        // 40 samples, windows of at least 8 aligned to 4: five windows of 8.
        assert_eq!(windowed(&v, 8, 4, 1.0), vec![8.0, 16.0, 24.0, 32.0, 40.0]);
        assert_eq!(best_window(&v, 8, 4, 0.5), 4.0);
        // Too few samples for two windows: one window over everything.
        assert_eq!(windowed(&v[..10], 8, 4, 1.0), vec![10.0]);
        assert_eq!(windowed(&[], 8, 1, 0.5), vec![0.0]);
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.e2e("p50_ms", 1.5, "ms");
        o.layer("x.y", 2.0, "count");
        o.attempted = 3;
        let line = o.json_line(false);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert!(o.json_line(true).contains("\"x.y\""));
    }
}
