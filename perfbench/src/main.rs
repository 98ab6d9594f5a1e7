//! Layered end-to-end benchmark of batsolv.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload picard|serve|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (see each module): `picard` — the proxy's implicit step,
//! closed loop; `serve` — single-system requests to `SolveService`, open
//! loop; `fleet` — groups to a 2-shard `FleetService`, open loop.
//!
//! Every run checks its outputs (true residuals, density drift, exactly
//! one outcome per accepted request) and prints a readable report, then
//! as its last line one JSON object: `correct`, `attempted`, `failed` and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A traced run also writes its spans to
//! `perfbench/out/spans-<workload>-seed<N>.jsonl`. Any failed check exits
//! with code 1; bad arguments exit with code 2.

mod fleet;
mod openloop;
mod picard;
mod pool;
mod probes;
mod report;
mod serve;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use batsolv_xgc::VelocityGrid;

use report::{quantile, Metric, Outcome};

/// End-to-end metrics, in output order, with units. Every workload emits
/// every one; "operation" means an implicit step (`picard`), a request
/// (`serve`) or a group (`fleet`).
///
/// * `setup_s` — median over repeated set-ups of input generation plus
///   proxy or service start.
/// * `peak_rss_mb` — peak resident memory of the run.
/// * `p50_ms` — median operation latency, best of the run's windows: a
///   closed-loop step's wall time (`picard`), or an open-loop request's
///   time from due to outcome at the reference rate.
/// * `tail_ms` — the same for p90.
/// * `max_rate_rps` — steps per second the closed loop sustains
///   (`picard`); goodput at the highest ladder rate whose p99 meets the
///   workload's limit with no refusals and no growing backlog.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("max_rate_rps", "1/s"),
];

/// Per-layer metrics of the traced run, grouped by crate. A layer a
/// workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("xgc.assemble_ms", "ms"),
    ("xgc.generate_ms", "ms"),
    ("xgc.density_drift", "ratio"),
    ("formats.to_ell_ms", "ms"),
    ("formats.spmv_us", "us"),
    ("formats.spmv_gbs", "GB/s"),
    ("solvers.solve_ms", "ms"),
    ("solvers.us_per_iter", "us"),
    ("solvers.iters_mean", "count"),
    ("solvers.iters_max", "count"),
    ("solvers.true_residual_max", "norm"),
    ("gpusim.launch_us", "us"),
    ("gpusim.par_speedup", "ratio"),
    ("gpusim.price_us", "us"),
    ("gpusim.sim_us_per_sys", "us"),
    ("gpusim.syncs_per_iter", "count"),
    ("gpusim.sim_sync_share", "ratio"),
    ("runtime.submit_us", "us"),
    ("runtime.queue_ms", "ms"),
    ("runtime.linger_ms", "ms"),
    ("runtime.solve_ms", "ms"),
    ("runtime.other_ms", "ms"),
    ("runtime.batch_size_mean", "count"),
    ("runtime.batches", "count"),
    ("runtime.queue_wait_p99_ms", "ms"),
    ("runtime.escalated", "count"),
    ("runtime.rejected", "count"),
    ("fleet.submit_us", "us"),
    ("fleet.queue_ms", "ms"),
    ("fleet.transit_ms", "ms"),
    ("fleet.solve_ms", "ms"),
    ("fleet.spill_ms", "ms"),
    ("fleet.spilled", "count"),
    ("fleet.steals", "count"),
    ("fleet.chunks", "count"),
    ("fleet.retries", "count"),
    ("fleet.shard_skew", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.balance_violations", "count"),
    ("trace.residual_share", "ratio"),
    ("load.lag_p99_ms", "ms"),
    ("host.calib_ms", "ms"),
    ("host.calib_after_ms", "ms"),
    ("host.cpu_util", "ratio"),
    ("host.steal_share", "ratio"),
    ("host.cores", "count"),
];

/// Every workload the program runs. `BENCHMARK.json` gates `picard` and
/// `serve`; `fleet` alone spreads too far between runs on a shared host
/// to gate, so its layer is measured inside `serve`'s traced run.
pub const WORKLOADS: [&str; 3] = ["picard", "serve", "fleet"];

#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    /// The XGC velocity grid (32 × 31); the self-test uses a small one.
    pub grid: VelocityGrid,
}

const USAGE: &str = "usage: batsolv-perfbench --workload picard|serve|fleet --seed N \
                     --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        traced: false,
        grid: VelocityGrid::xgc_standard(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                opts.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    Ok(opts)
}

/// Run one workload and put its metrics in contract order.
pub fn run_workload(opts: &Options) -> (Outcome, Option<spans::Recorder>) {
    let mut out = Outcome::default();
    let spans = match opts.workload.as_str() {
        "picard" => picard::run(opts, &mut out),
        "serve" => serve::run(opts, &mut out),
        _ => fleet::run(opts, &mut out),
    };
    let spans = match spans {
        Ok(s) => Some(s),
        Err(e) => {
            out.miss(format!("workload error: {e}"));
            None
        }
    };
    finish(&mut out);
    (out, spans)
}

/// Add the run-wide metrics, fill the layers the workload bypassed with
/// 0, and order both lists as the contract lists them.
fn finish(out: &mut Outcome) {
    out.e2e("peak_rss_mb", report::peak_rss_mb(), "MB");
    out.layer("solvers.true_residual_max", out.residual_max, "norm");
    // Iterations of the returned solutions, where there are any, replace
    // the probe batch's.
    if !out.iterations.is_empty() {
        let (mean, max) = (
            report::mean(&out.iterations),
            out.iterations.iter().copied().fold(0.0, f64::max),
        );
        out.layer("solvers.iters_mean", mean, "count");
        out.layer("solvers.iters_max", max, "count");
    }
    if !out.lag_ms.is_empty() {
        out.layer("load.lag_p99_ms", quantile(&out.lag_ms, 0.99), "ms");
    }
    out.layer(
        "trace.balance_violations",
        out.balance_violations as f64,
        "count",
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    out.layer("host.cores", cores as f64, "count");
    out.end_to_end = ordered(&END_TO_END, &out.end_to_end);
    out.per_layer = ordered(&PER_LAYER, &out.per_layer);
}

fn ordered(list: &[(&'static str, &'static str)], have: &[Metric]) -> Vec<Metric> {
    list.iter()
        .map(|&(name, unit)| {
            let value = have
                .iter()
                .rev()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric { name, value, unit }
        })
        .collect()
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

fn print_report(opts: &Options, out: &Outcome) {
    println!(
        "batsolv-perfbench workload={} seed={} seconds={} trace={} grid={}x{}",
        opts.workload,
        opts.seed,
        opts.seconds.as_secs_f64(),
        u8::from(opts.traced),
        opts.grid.n_par,
        opts.grid.n_perp
    );
    for note in &out.notes {
        println!("  {note}");
    }
    let show = |kind: &str, ms: &[Metric]| {
        for m in ms {
            println!(
                "  {kind:<6} {:<28} {:>14} {}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
    };
    show("info", &out.info);
    if opts.traced {
        show("layer", &out.per_layer);
    } else {
        show("e2e", &out.end_to_end);
    }
    println!(
        "  fail_ratio {:.6} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for miss in out.misses.iter().take(20) {
        println!("  CHECK FAILED: {miss}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (out, spans) = run_workload(&opts);
    print_report(&opts, &out);
    if let (true, Some(spans)) = (opts.traced, spans) {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    println!("{}", out.json_line(opts.traced));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    //! Self-test: every workload, briefly, on a small velocity grid,
    //! untraced and traced, against the metric lists in `BENCHMARK.json`.

    use super::*;

    /// Just enough JSON to read `BENCHMARK.json` and the result line.
    #[derive(Debug, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(kv) => &kv.iter().find(|(k, _)| k == key).expect(key).1,
                _ => panic!("not an object"),
            }
        }

        fn arr(&self) -> &[Json] {
            match self {
                Json::Arr(v) => v,
                _ => panic!("not an array"),
            }
        }

        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                _ => panic!("not a string"),
            }
        }
    }

    fn parse_json(text: &str) -> Json {
        fn ws(b: &[u8], i: &mut usize) {
            while *i < b.len() && b[*i].is_ascii_whitespace() {
                *i += 1;
            }
        }
        fn value(b: &[u8], i: &mut usize) -> Json {
            ws(b, i);
            match b[*i] {
                b'{' => {
                    *i += 1;
                    let mut kv = Vec::new();
                    loop {
                        ws(b, i);
                        if b[*i] == b'}' {
                            *i += 1;
                            return Json::Obj(kv);
                        }
                        let Json::Str(k) = value(b, i) else {
                            panic!("key")
                        };
                        ws(b, i);
                        assert_eq!(b[*i], b':');
                        *i += 1;
                        kv.push((k, value(b, i)));
                        ws(b, i);
                        if b[*i] == b',' {
                            *i += 1;
                        }
                    }
                }
                b'[' => {
                    *i += 1;
                    let mut v = Vec::new();
                    loop {
                        ws(b, i);
                        if b[*i] == b']' {
                            *i += 1;
                            return Json::Arr(v);
                        }
                        v.push(value(b, i));
                        ws(b, i);
                        if b[*i] == b',' {
                            *i += 1;
                        }
                    }
                }
                b'"' => {
                    let start = *i + 1;
                    *i = start;
                    while b[*i] != b'"' {
                        *i += 1;
                    }
                    *i += 1;
                    Json::Str(String::from_utf8(b[start..*i - 1].to_vec()).unwrap())
                }
                b't' | b'f' | b'n' => {
                    let word: String = b[*i..]
                        .iter()
                        .take_while(|c| c.is_ascii_alphabetic())
                        .map(|&c| c as char)
                        .collect();
                    *i += word.len();
                    match word.as_str() {
                        "true" => Json::Bool(true),
                        "false" => Json::Bool(false),
                        _ => Json::Null,
                    }
                }
                _ => {
                    let start = *i;
                    while *i < b.len()
                        && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                    {
                        *i += 1;
                    }
                    Json::Num(std::str::from_utf8(&b[start..*i]).unwrap().parse().unwrap())
                }
            }
        }
        value(text.as_bytes(), &mut 0)
    }

    fn benchmark_json() -> Json {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/"))
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_metrics_the_program_emits() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn every_workload_emits_every_listed_metric_with_its_unit() {
        let doc = benchmark_json();
        let listed_workloads: Vec<&str> = doc
            .get("workloads")
            .arr()
            .iter()
            .map(|w| w.get("name").str())
            .collect();
        assert!(listed_workloads.iter().all(|w| WORKLOADS.contains(w)));
        for workload in WORKLOADS {
            for traced in [false, true] {
                let opts = Options {
                    workload: workload.to_string(),
                    seed: 7,
                    seconds: Duration::from_secs(1),
                    traced,
                    grid: VelocityGrid::small(10, 9),
                };
                let (out, _) = run_workload(&opts);
                assert!(out.correct(), "{opts:?}: {:?}", out.misses);
                let line = parse_json(&out.json_line(traced));
                assert_eq!(line.get("correct"), &Json::Bool(true));
                let Json::Obj(metrics) = line.get("metrics") else {
                    panic!("metrics")
                };
                let want = listed(&doc, if traced { "per_layer" } else { "end_to_end" });
                let got: Vec<(String, String)> = metrics
                    .iter()
                    .map(|(name, m)| (name.clone(), m.get("unit").str().to_string()))
                    .collect();
                assert_eq!(got, want, "{opts:?}");
                for (name, m) in metrics {
                    let Json::Num(v) = m.get("value") else {
                        panic!("{name} value")
                    };
                    assert!(v.is_finite(), "{name}");
                    if !traced {
                        assert!(*v > 0.0, "{}: end-to-end {name} is {v}", opts.workload);
                    }
                }
            }
        }
    }
}
