//! Prometheus text-exposition rendering of a [`FleetSnapshot`], with
//! per-device labels.
//!
//! Every per-shard series carries `device="N"` (the shard id) plus
//! `profile` (the simulated hardware behind it); the CPU spill pool
//! exposes the same series under `device="cpu-pool"`, so a dashboard
//! can stack GPU shards against the spill path without a second metric
//! namespace. Rendering goes through the typed
//! [`MetricsRegistry`](batsolv_trace::MetricsRegistry) — the same
//! conformance-by-construction builder as the runtime page — so
//! HELP/TYPE pairing, name/label charsets, and series uniqueness are
//! asserted at build time, and the per-class series reuse the
//! runtime's exact schema under the `batsolv_fleet` prefix. Pure
//! function of the snapshot: a scrape and a [`FleetSnapshot::render`]
//! page taken at the same instant can never disagree.

use batsolv_runtime::render_class_series;
use batsolv_trace::MetricsRegistry;

use crate::stats::{FleetSnapshot, ShardSnapshot};

fn device_label(s: &ShardSnapshot, gpu_shards: usize) -> String {
    if (s.shard as usize) < gpu_shards {
        s.shard.to_string()
    } else {
        "cpu-pool".to_string()
    }
}

/// Render the fleet snapshot as a Prometheus text-format metrics page.
pub fn fleet_prometheus_text(f: &FleetSnapshot) -> String {
    let gpu_shards = f.shards.len();
    let mut m = MetricsRegistry::new();

    m.counter(
        "batsolv_fleet_requests_accepted_total",
        "Systems accepted by the fleet scheduler.",
        &[],
        f.accepted as f64,
    );
    m.counter(
        "batsolv_fleet_requests_rejected_total",
        "Systems rejected at submit (shape, tolerance, deadline, backpressure, breaker).",
        &[],
        f.rejected as f64,
    );
    m.counter(
        "batsolv_fleet_gpu_chunks_total",
        "Chunks dispatched to GPU shards.",
        &[],
        f.gpu_chunks as f64,
    );
    m.counter(
        "batsolv_fleet_spilled_systems_total",
        "Systems spilled to the CPU banded-LU pool.",
        &[],
        f.spilled as f64,
    );
    m.gauge(
        "batsolv_fleet_makespan_seconds",
        "Busiest device's simulated time.",
        &[],
        f.makespan_s,
    );
    m.gauge(
        "batsolv_fleet_sim_time_seconds_total",
        "Simulated device time summed across the fleet.",
        &[],
        f.sim_time_total_s,
    );
    for (q, v) in [("0.5", f.wait_p50), ("0.99", f.wait_p99)] {
        m.gauge(
            "batsolv_fleet_wait_seconds",
            "Fleet-wide queue-wait percentiles, merged across shards.",
            &[("quantile", q)],
            v.as_secs_f64(),
        );
    }
    for (q, v) in [("0.5", f.latency_p50), ("0.99", f.latency_p99)] {
        m.gauge(
            "batsolv_fleet_latency_seconds",
            "Fleet-wide submit-to-outcome latency percentiles.",
            &[("quantile", q)],
            v.as_secs_f64(),
        );
    }

    let all: Vec<&ShardSnapshot> = f
        .shards
        .iter()
        .chain(std::iter::once(&f.cpu_pool))
        .collect();

    type DeviceCounter = (&'static str, &'static str, fn(&ShardSnapshot) -> u64);
    let per_device_counters: [DeviceCounter; 10] = [
        (
            "batsolv_fleet_device_chunks_total",
            "Chunks executed per device (own plus stolen).",
            |s| s.chunks_executed,
        ),
        (
            "batsolv_fleet_device_completed_total",
            "Systems converged per device.",
            |s| s.completed,
        ),
        (
            "batsolv_fleet_device_failed_total",
            "Systems terminally failed per device.",
            |s| s.failed,
        ),
        (
            "batsolv_fleet_device_steals_in_total",
            "Chunks this device stole from loaded peers.",
            |s| s.steals_in,
        ),
        (
            "batsolv_fleet_device_steals_out_total",
            "Chunks loaded peers stole from this device's queue.",
            |s| s.steals_out,
        ),
        (
            "batsolv_fleet_device_breaker_trips_total",
            "Circuit-breaker trips per device.",
            |s| s.breaker_trips,
        ),
        (
            "batsolv_fleet_device_retries_total",
            "Chunks re-queued elsewhere after a retryable failure, per device.",
            |s| s.retries,
        ),
        (
            "batsolv_fleet_device_hedges_fired_total",
            "Hedge duplicates launched against peer flights, per device.",
            |s| s.hedges_fired,
        ),
        (
            "batsolv_fleet_device_hedges_won_total",
            "Hedge duplicates that delivered first, per device.",
            |s| s.hedges_won,
        ),
        (
            "batsolv_fleet_device_shed_total",
            "Systems shed at dispatch (budget spent or sub-deadline), per device.",
            |s| s.shed,
        ),
    ];
    for (name, help, get) in per_device_counters {
        for s in &all {
            let dev = device_label(s, gpu_shards);
            m.counter(
                name,
                help,
                &[("device", dev.as_str()), ("profile", s.device)],
                get(s) as f64,
            );
        }
    }

    for s in &all {
        let dev = device_label(s, gpu_shards);
        m.gauge(
            "batsolv_fleet_device_queue_depth",
            "Chunks queued per device right now.",
            &[("device", dev.as_str()), ("profile", s.device)],
            s.queue_depth as f64,
        );
    }
    for s in &all {
        let dev = device_label(s, gpu_shards);
        m.gauge(
            "batsolv_fleet_device_breaker_open",
            "Whether the device's circuit breaker is open (1) or closed (0).",
            &[("device", dev.as_str()), ("profile", s.device)],
            if s.breaker_open { 1.0 } else { 0.0 },
        );
    }
    for s in &all {
        let dev = device_label(s, gpu_shards);
        m.gauge(
            "batsolv_fleet_device_sim_time_seconds",
            "Simulated device time accumulated per device.",
            &[("device", dev.as_str()), ("profile", s.device)],
            s.sim_time_s,
        );
    }
    for s in &all {
        let dev = device_label(s, gpu_shards);
        for (q, v) in [("0.5", s.wait_p50), ("0.99", s.wait_p99)] {
            m.gauge(
                "batsolv_fleet_device_wait_seconds",
                "Per-device queue-wait percentiles.",
                &[("device", dev.as_str()), ("quantile", q)],
                v.as_secs_f64(),
            );
        }
    }
    for s in &all {
        let dev = device_label(s, gpu_shards);
        for (q, v) in [("0.5", s.latency_p50), ("0.99", s.latency_p99)] {
            m.gauge(
                "batsolv_fleet_device_latency_seconds",
                "Per-device submit-to-outcome latency percentiles.",
                &[("device", dev.as_str()), ("quantile", q)],
                v.as_secs_f64(),
            );
        }
    }

    // Per-class series under the fleet prefix — the identical schema the
    // runtime page exposes under `batsolv`, rendered by the same code.
    render_class_series(&mut m, "batsolv_fleet", &f.classes);

    m.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsolv_runtime::{ClassTracker, ClassesSnapshot};
    use batsolv_trace::{check_prom_conformance, parse_prom_labeled, WorkloadClass};
    use std::time::Duration;

    fn shard(id: u32, device: &'static str) -> ShardSnapshot {
        ShardSnapshot {
            shard: id,
            device,
            queue_depth: id as usize,
            breaker_open: id == 1,
            chunks_executed: 10 + id as u64,
            completed: 100 * (id as u64 + 1),
            failed: id as u64,
            steals_in: 2,
            steals_out: 3,
            breaker_trips: 0,
            retries: id as u64,
            hedges_fired: 2 * id as u64,
            hedges_won: id as u64,
            shed: 0,
            sim_time_s: 0.5 * (id as f64 + 1.0),
            wait_p50: Duration::from_micros(100),
            wait_p99: Duration::from_micros(900),
            latency_p50: Duration::from_micros(200),
            latency_p99: Duration::from_micros(1800),
        }
    }

    fn classes() -> ClassesSnapshot {
        let t = ClassTracker::new();
        t.observe(WorkloadClass::IonLike, 120, Some(3), Some(true));
        t.observe(WorkloadClass::IonLike, 450, Some(4), Some(true));
        t.observe(WorkloadClass::ElectronLike, 5_000, Some(5), Some(false));
        t.snapshot()
    }

    fn snapshot() -> FleetSnapshot {
        FleetSnapshot {
            shards: vec![shard(0, "NVIDIA V100-16GB"), shard(1, "NVIDIA V100-16GB")],
            cpu_pool: shard(2, "2x Intel Xeon Gold 6148 (38 worker cores)"),
            accepted: 640,
            rejected: 3,
            gpu_chunks: 20,
            spilled: 11,
            wait_p50: Duration::from_micros(150),
            wait_p99: Duration::from_micros(950),
            latency_p50: Duration::from_micros(250),
            latency_p99: Duration::from_micros(1900),
            makespan_s: 1.0,
            sim_time_total_s: 2.5,
            classes: classes(),
        }
    }

    #[test]
    fn per_device_labels_cover_gpu_shards_and_cpu_pool() {
        let page = fleet_prometheus_text(&snapshot());
        assert!(page.contains("batsolv_fleet_device_completed_total{device=\"0\""));
        assert!(page.contains("batsolv_fleet_device_completed_total{device=\"1\""));
        assert!(page.contains("batsolv_fleet_device_completed_total{device=\"cpu-pool\""));
        assert!(page.contains("profile=\"2x Intel Xeon Gold 6148 (38 worker cores)\""));
        assert!(page.contains("batsolv_fleet_spilled_systems_total 11"));
        assert!(page.contains("batsolv_fleet_device_breaker_open{device=\"1\""));
        assert!(page.contains("batsolv_fleet_device_retries_total{device=\"1\""));
        assert!(page.contains("batsolv_fleet_device_hedges_fired_total{device=\"0\""));
        assert!(page.contains("batsolv_fleet_device_hedges_won_total{device=\"cpu-pool\""));
        assert!(page.contains("batsolv_fleet_device_shed_total{device=\"0\""));
    }

    #[test]
    fn page_agrees_with_the_snapshot() {
        let f = snapshot();
        let page = fleet_prometheus_text(&f);
        let accepted =
            batsolv_trace::parse_prom_value(&page, "batsolv_fleet_requests_accepted_total")
                .unwrap();
        assert_eq!(accepted as u64, f.accepted);
        let makespan =
            batsolv_trace::parse_prom_value(&page, "batsolv_fleet_makespan_seconds").unwrap();
        assert!((makespan - f.makespan_s).abs() < 1e-12);
    }

    #[test]
    fn page_is_exposition_conformant() {
        check_prom_conformance(&fleet_prometheus_text(&snapshot()))
            .expect("fleet page must be exposition-conformant");
    }

    #[test]
    fn class_series_match_the_runtime_schema_under_the_fleet_prefix() {
        let f = snapshot();
        let page = fleet_prometheus_text(&f);
        assert_eq!(
            parse_prom_labeled(
                &page,
                "batsolv_fleet_class_requests_total",
                &[("class", "ion-like")],
            ),
            Some(2.0)
        );
        let ion = f.classes.get(WorkloadClass::IonLike);
        assert_eq!(
            parse_prom_labeled(
                &page,
                "batsolv_fleet_class_latency_us",
                &[("class", "ion-like"), ("quantile", "0.99")],
            ),
            Some(ion.p99_us as f64)
        );
        assert_eq!(
            parse_prom_labeled(
                &page,
                "batsolv_fleet_class_deadline_hit_ratio",
                &[("class", "electron-like")],
            ),
            Some(0.0)
        );
        assert!(
            parse_prom_labeled(
                &page,
                "batsolv_fleet_slo_burn_rate",
                &[("class", "electron-like"), ("window", "1m")],
            )
            .unwrap()
                > 1.0,
            "every electron request missed: the 1m window must be burning"
        );
        // The tail exemplar links the histogram to the slowest trace.
        assert!(page.contains("trace_id=\"4\""));
    }
}
