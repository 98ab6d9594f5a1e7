//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--quick] all
//! repro [--quick] fig1 fig2 ... fig9 table1 table2 table3
//! repro [--quick] ablation-{monolithic,shared,solver,tolerance}
//! repro [--quick] ext-{multispecies,multigpu,mixed-precision,gpu-direct,
//!                      campaign,dia,precond,convergence,gridsize,serving,chaos,trace,fleet,
//!                      hedge}
//! ```
//!
//! CSV series land in `bench_out/` (override with `REPRO_OUT`); the
//! combined text report is appended to `bench_out/report.txt`, a
//! machine-readable digest to `bench_out/summary.json`, and everything
//! is echoed to stdout. Exit code 1 if any shape check fails.

use std::time::Instant;

use batsolv_bench::experiments::*;
use batsolv_bench::RunConfig;
use batsolv_trace::json_escape;

/// Machine-readable record of one experiment, written to `summary.json`.
struct ExperimentRecord {
    name: String,
    passed: bool,
    duration_s: f64,
    /// The `[PASS]`/`[FAIL]` check lines of the report section.
    checks: Vec<String>,
}

impl ExperimentRecord {
    /// Serialize as a JSON object (hand-rolled; no serde offline).
    fn to_json(&self) -> String {
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| format!("\"{}\"", json_escape(c)))
            .collect();
        format!(
            "{{\n    \"name\": \"{}\",\n    \"passed\": {},\n    \"duration_s\": {},\n    \"checks\": [{}]\n  }}",
            json_escape(&self.name),
            self.passed,
            self.duration_s,
            checks.join(", ")
        )
    }
}

type Runner = fn(&RunConfig) -> batsolv_types::Result<String>;

const EXPERIMENTS: &[(&str, Runner)] = &[
    ("fig1", fig1::run),
    ("fig2", fig2::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("table1", table1::run),
    ("table2", table2::run),
    ("table3", table3::run),
    ("ablation-monolithic", ablations::monolithic),
    ("ext-multispecies", extensions::multi_species),
    ("ext-multigpu", extensions::multi_gpu),
    ("ext-mixed-precision", extensions::mixed_precision),
    ("ext-gpu-direct", extensions::gpu_direct),
    ("ext-campaign", extensions2::campaign),
    ("ext-dia", extensions2::dia_format),
    ("ext-precond", extensions2::preconditioners),
    ("ext-convergence", convergence::run),
    ("ext-gridsize", gridsize::run),
    ("ext-serving", serving::run),
    ("ext-chaos", chaos::run),
    ("ext-trace", tracing::run),
    ("ext-fleet", fleet::run),
    ("ext-hedge", hedge::run),
    ("ablation-shared", ablations::shared_memory),
    ("ablation-solver", ablations::solver_choice),
    ("ablation-tolerance", ablations::tolerance),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let cfg = RunConfig::new(quick);

    let names: Vec<&str> = if selected.is_empty() || selected.contains(&"all") {
        EXPERIMENTS.iter().map(|(n, _)| *n).collect()
    } else {
        selected
    };

    let mut failures = 0;
    let mut records: Vec<ExperimentRecord> = Vec::with_capacity(names.len());
    for name in &names {
        let Some((_, runner)) = EXPERIMENTS.iter().find(|(n, _)| n == name) else {
            eprintln!("unknown experiment `{name}`; available:");
            for (n, _) in EXPERIMENTS {
                eprintln!("  {n}");
            }
            std::process::exit(2);
        };
        let started = Instant::now();
        match runner(&cfg) {
            Ok(section) => {
                println!("{section}");
                println!(
                    "[{name} finished in {:.1}s]\n",
                    started.elapsed().as_secs_f64()
                );
                let _ = batsolv_bench::output::append_report(&cfg.out_dir, &section);
                let passed = !section.contains("FAIL");
                if !passed {
                    failures += 1;
                }
                records.push(ExperimentRecord {
                    name: name.to_string(),
                    passed,
                    duration_s: started.elapsed().as_secs_f64(),
                    checks: section
                        .lines()
                        .filter(|l| l.contains("PASS") || l.contains("FAIL"))
                        .map(|l| l.trim().to_string())
                        .collect(),
                });
            }
            Err(e) => {
                eprintln!("[{name} ERROR] {e}");
                failures += 1;
                records.push(ExperimentRecord {
                    name: name.to_string(),
                    passed: false,
                    duration_s: started.elapsed().as_secs_f64(),
                    checks: vec![format!("ERROR: {e}")],
                });
            }
        }
    }
    let json = format!(
        "[\n  {}\n]\n",
        records
            .iter()
            .map(ExperimentRecord::to_json)
            .collect::<Vec<_>>()
            .join(",\n  ")
    );
    let _ = std::fs::create_dir_all(&cfg.out_dir);
    let _ = std::fs::write(cfg.out_dir.join("summary.json"), json);
    println!(
        "repro complete: {} experiments, {failures} with failures; CSV + summary.json in {}",
        names.len(),
        cfg.out_dir.display()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
