//! Per-request latency attribution: phase ledgers and the workload
//! classifier.
//!
//! A [`PhaseLedger`] decomposes one request's end-to-end wall time into
//! named phases that *partition* the `[submitted, terminal]` interval:
//! admission, queue wait, batch-formation linger, steal/reroute transit,
//! retry backoff, hedge wait, solve, CPU spill, and an explicit `other`
//! residual that absorbs measurement slack so the partition stays exact.
//! The invariant every ledger must satisfy — and tests assert — is that
//! the wall phases sum to the measured end-to-end latency within
//! tolerance ([`PhaseLedger::balanced_within`]).
//!
//! The solve phase additionally carries a **simulated-time split**
//! (SpMV+launch / reduction / sync / transfer) taken from the
//! `KernelLaunch` and `Transfer` records of the batch the request rode
//! in. Simulated microseconds are a different clock from wall
//! microseconds, so the split is reported alongside the wall phases and
//! never participates in the wall-phase sum.
//!
//! The [`WorkloadClass`] taxonomy follows the paper's Table III: ion-like
//! systems converge in ≈5 BiCGSTAB iterations, electron-like in ≈30–35.
//! Requests that fail to converge, diverge, or blow far past the
//! electron-like band are `anomalous`. Every downstream observation
//! (per-class percentiles, deadline hit rates, SLO burn) is keyed on
//! this label.
//!
//! [`LedgerAggregator`] is the streaming consumer: feed it a trace-event
//! stream (live, or replayed from JSONL) and it collects the `ledger`
//! events the runtime and fleet emit at each terminal outcome. It builds
//! no ledger of its own: a request that reached a terminal without one
//! stays open.

use std::collections::HashSet;

use crate::event::{json_f64, EventKind, TraceEvent, TraceId};

/// Iteration ceiling for the ion-like class (paper Table III: ≈5
/// BiCGSTAB iterations; the band is widened to absorb tolerance spread).
pub const ION_ITER_MAX: u32 = 12;

/// Iteration ceiling for the electron-like class (paper Table III:
/// ≈30–35 iterations; GMRES escalation can add restarts, so the band
/// extends well past the nominal count). Beyond it, a converged request
/// is still `anomalous` — it behaved like neither species.
pub const ELECTRON_ITER_MAX: u32 = 80;

/// Workload class of one request, inferred from its convergence record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Converged within [`ION_ITER_MAX`] iterations (Table III ion band).
    IonLike,
    /// Converged within [`ELECTRON_ITER_MAX`] iterations.
    ElectronLike,
    /// Did not converge, diverged, or needed more iterations than any
    /// physical species should.
    Anomalous,
}

/// Number of workload classes (array-index bound).
pub const CLASS_COUNT: usize = 3;

impl WorkloadClass {
    /// All classes, in label order.
    pub const ALL: [WorkloadClass; CLASS_COUNT] = [
        WorkloadClass::IonLike,
        WorkloadClass::ElectronLike,
        WorkloadClass::Anomalous,
    ];

    /// Stable label used everywhere the class appears (Prometheus
    /// labels, snapshot render, ledger JSON).
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadClass::IonLike => "ion-like",
            WorkloadClass::ElectronLike => "electron-like",
            WorkloadClass::Anomalous => "anomalous",
        }
    }

    /// Dense index for per-class arrays.
    pub fn index(&self) -> usize {
        match self {
            WorkloadClass::IonLike => 0,
            WorkloadClass::ElectronLike => 1,
            WorkloadClass::Anomalous => 2,
        }
    }

    /// Inverse of [`WorkloadClass::name`].
    pub fn from_name(name: &str) -> Option<WorkloadClass> {
        WorkloadClass::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// Classify a terminal outcome from its iteration count alone.
///
/// A request that converged at its initial guess (0 iterations) is the
/// cheapest possible ion-like solve, not an anomaly.
pub fn classify(iterations: u32, converged: bool) -> WorkloadClass {
    if !converged || iterations > ELECTRON_ITER_MAX {
        WorkloadClass::Anomalous
    } else if iterations <= ION_ITER_MAX {
        WorkloadClass::IonLike
    } else {
        WorkloadClass::ElectronLike
    }
}

/// Classify with the convergence-rate signal from a
/// `ConvergenceHistory` (`mean_rate`): a geometric-mean residual ratio
/// at or above 1.0 means the residual was not shrinking — anomalous
/// regardless of where the iteration count landed.
pub fn classify_with_rate(iterations: u32, converged: bool, mean_rate: f64) -> WorkloadClass {
    if mean_rate.is_finite() && mean_rate >= 1.0 {
        return WorkloadClass::Anomalous;
    }
    classify(iterations, converged)
}

/// Names of the wall phases, in ledger order. `other` is the explicit
/// residual that keeps the partition exact.
pub const WALL_PHASES: [&str; 9] = [
    "admission",
    "queue",
    "linger",
    "transit",
    "backoff",
    "hedge",
    "solve",
    "spill",
    "other",
];

/// Names of the simulated-time solve-split phases, in ledger order.
pub const SIM_PHASES: [&str; 4] = ["spmv", "reduction", "sync", "transfer"];

/// One request's complete latency attribution.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseLedger {
    /// Terminal outcome tag (mirrors the `terminal` event).
    pub outcome: &'static str,
    /// Workload class inferred from the convergence record.
    pub class: WorkloadClass,
    /// Total solver iterations across rungs.
    pub iterations: u32,
    /// True when this request was its dispatch's straggler, by the
    /// rule of the core that served it: in the single-device service,
    /// the member of a fused batch with the most iterations (first on
    /// ties; never in a batch of one); in the fleet, the delivery that
    /// completed its submission group.
    pub straggler: bool,
    /// Whether the request's deadline was met: `None` when it carried no
    /// deadline, `Some(false)` when the deadline expired before the
    /// terminal outcome.
    pub deadline: Option<bool>,
    /// Measured end-to-end wall time, submit → terminal, µs.
    pub end_to_end_us: f64,
    /// Admission-gate time (synchronous with submit; currently priced at
    /// zero because the `submitted` event marks admission completion).
    pub admission_us: f64,
    /// Time in the bounded submission queue (or a shard queue, first hop).
    pub queue_us: f64,
    /// Time held by the batch former waiting for the batch to fill.
    pub linger_us: f64,
    /// Time re-queued after a steal or cross-shard reroute (hops ≥ 2).
    pub transit_us: f64,
    /// Deterministic retry backoff slept on this request's behalf.
    pub backoff_us: f64,
    /// Age of the primary in-flight chunk when a hedge duplicate fired
    /// (only on requests delivered by the hedge).
    pub hedge_us: f64,
    /// Wall time inside the solve dispatch (GPU shards).
    pub solve_us: f64,
    /// Wall time inside the CPU banded-LU spill pool (spilled requests
    /// record their solve here instead of `solve`).
    pub spill_us: f64,
    /// Residual: `end_to_end` minus every attributed phase. Kept as an
    /// explicit phase so the wall phases always partition the interval;
    /// may be slightly negative when phase measurements overlap.
    pub other_us: f64,
    /// Simulated SpMV + kernel-launch share of the solve, µs (sim clock).
    pub sim_spmv_us: f64,
    /// Simulated reduction-tree share of the solve, µs (sim clock).
    pub sim_reduction_us: f64,
    /// Simulated synchronization share of the solve, µs (sim clock).
    pub sim_sync_us: f64,
    /// Simulated host↔device transfer share of the solve, µs (sim clock).
    pub sim_transfer_us: f64,
}

impl Default for PhaseLedger {
    fn default() -> PhaseLedger {
        PhaseLedger {
            outcome: "",
            class: WorkloadClass::Anomalous,
            iterations: 0,
            straggler: false,
            deadline: None,
            end_to_end_us: 0.0,
            admission_us: 0.0,
            queue_us: 0.0,
            linger_us: 0.0,
            transit_us: 0.0,
            backoff_us: 0.0,
            hedge_us: 0.0,
            solve_us: 0.0,
            spill_us: 0.0,
            other_us: 0.0,
            sim_spmv_us: 0.0,
            sim_reduction_us: 0.0,
            sim_sync_us: 0.0,
            sim_transfer_us: 0.0,
        }
    }
}

impl PhaseLedger {
    /// The wall phases with their names, in [`WALL_PHASES`] order.
    pub fn wall_phases(&self) -> [(&'static str, f64); 9] {
        [
            ("admission", self.admission_us),
            ("queue", self.queue_us),
            ("linger", self.linger_us),
            ("transit", self.transit_us),
            ("backoff", self.backoff_us),
            ("hedge", self.hedge_us),
            ("solve", self.solve_us),
            ("spill", self.spill_us),
            ("other", self.other_us),
        ]
    }

    /// The simulated solve-split phases, in [`SIM_PHASES`] order.
    pub fn sim_phases(&self) -> [(&'static str, f64); 4] {
        [
            ("spmv", self.sim_spmv_us),
            ("reduction", self.sim_reduction_us),
            ("sync", self.sim_sync_us),
            ("transfer", self.sim_transfer_us),
        ]
    }

    /// Sum of every wall phase, including `other`.
    pub fn phase_sum_us(&self) -> f64 {
        self.wall_phases().iter().map(|(_, v)| v).sum()
    }

    /// The phase-sum invariant: wall phases sum to the measured
    /// end-to-end latency within `tol_us`.
    pub fn balanced_within(&self, tol_us: f64) -> bool {
        (self.phase_sum_us() - self.end_to_end_us).abs() <= tol_us
    }

    /// Set `other` to the residual so the partition becomes exact.
    /// Call once, after every attributed phase is final.
    pub fn close(&mut self) {
        self.other_us = 0.0;
        self.other_us = self.end_to_end_us - self.phase_sum_us();
    }

    /// The ledger's JSON fields with a leading comma, for embedding in a
    /// trace-event object.
    pub fn json_fields(&self) -> String {
        let mut f = String::with_capacity(256);
        f.push_str(&format!(
            ",\"outcome\":\"{}\",\"class\":\"{}\",\"iterations\":{},\
             \"straggler\":{},\"deadline\":{}",
            self.outcome,
            self.class.name(),
            self.iterations,
            self.straggler,
            match self.deadline {
                Some(hit) => hit.to_string(),
                None => "null".to_string(),
            }
        ));
        f.push_str(&format!(
            ",\"end_to_end_us\":{}",
            json_f64(self.end_to_end_us)
        ));
        for (name, v) in self.wall_phases() {
            f.push_str(&format!(",\"{name}_us\":{}", json_f64(v)));
        }
        for (name, v) in self.sim_phases() {
            f.push_str(&format!(",\"sim_{name}_us\":{}", json_f64(v)));
        }
        f
    }
}

/// Nearest-rank percentile over an ascending-sorted slice
/// (`idx = round((n-1)·p)`, the convention shared with the runtime and
/// fleet stats). Empty input yields 0.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Streaming ledger collector over a trace-event stream.
///
/// A request opens at `submitted` and closes at its `ledger` event, or
/// at a `rejected` push that refused it after submission.
#[derive(Debug, Default)]
pub struct LedgerAggregator {
    open: HashSet<TraceId>,
    finished: Vec<(TraceId, PhaseLedger)>,
}

impl LedgerAggregator {
    /// Empty aggregator.
    pub fn new() -> LedgerAggregator {
        LedgerAggregator::default()
    }

    /// Build the ledgers of a fully captured event stream in one call.
    pub fn build(events: &[TraceEvent]) -> LedgerAggregator {
        let mut agg = LedgerAggregator::new();
        for ev in events {
            agg.observe(ev);
        }
        agg
    }

    /// Feed one event. Order must follow emission order (JSONL replay
    /// order satisfies this).
    pub fn observe(&mut self, ev: &TraceEvent) {
        let Some(id) = ev.trace_id else { return };
        match &ev.kind {
            EventKind::Submitted { .. } => {
                self.open.insert(id);
            }
            // A push refused after `Submitted` (queue full, shutting
            // down) closes the request: it never reaches a terminal.
            EventKind::Rejected { .. } => {
                self.open.remove(&id);
            }
            EventKind::Ledger(ledger) => {
                self.open.remove(&id);
                self.finished.push((id, ledger.clone()));
            }
            _ => {}
        }
    }

    /// Completed ledgers, in emission order.
    pub fn ledgers(&self) -> &[(TraceId, PhaseLedger)] {
        &self.finished
    }

    /// Requests submitted but neither closed by a ledger nor refused.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Aggregate the collected ledgers into a report.
    pub fn report(&self, tol_us: f64) -> LedgerReport {
        LedgerReport::from_ledgers(&self.finished, tol_us)
    }
}

/// Per-class aggregate inside a [`LedgerReport`].
#[derive(Clone, Debug, Default)]
pub struct LedgerClassReport {
    /// Requests in the class.
    pub count: u64,
    /// Nearest-rank median end-to-end latency, µs.
    pub p50_us: f64,
    /// Nearest-rank 99th-percentile end-to-end latency, µs.
    pub p99_us: f64,
    /// Requests that carried a deadline.
    pub deadline_total: u64,
    /// Deadline-carrying requests that met it.
    pub deadline_hits: u64,
}

/// Aggregated view over a set of phase ledgers: what `--profile-out`
/// writes and the ext-trace gate checks.
#[derive(Clone, Debug, Default)]
pub struct LedgerReport {
    /// Ledgers aggregated.
    pub requests: u64,
    /// Ledgers flagged as their group's straggler.
    pub stragglers: u64,
    /// Ledgers whose wall phases failed to sum to end-to-end within the
    /// tolerance the report was built with.
    pub balance_violations: u64,
    /// Worst absolute `|phase_sum − end_to_end|` observed, µs.
    pub max_imbalance_us: f64,
    /// Total µs per wall phase, [`WALL_PHASES`] order.
    pub wall_totals_us: [f64; 9],
    /// Total sim µs per solve-split phase, [`SIM_PHASES`] order.
    pub sim_totals_us: [f64; 4],
    /// Per-class aggregates, [`WorkloadClass::ALL`] order.
    pub classes: [LedgerClassReport; CLASS_COUNT],
}

impl LedgerReport {
    /// Aggregate `ledgers`, counting balance violations against `tol_us`.
    pub fn from_ledgers(ledgers: &[(TraceId, PhaseLedger)], tol_us: f64) -> LedgerReport {
        let mut rep = LedgerReport::default();
        let mut lat: [Vec<f64>; CLASS_COUNT] = Default::default();
        for (_, l) in ledgers {
            rep.requests += 1;
            if l.straggler {
                rep.stragglers += 1;
            }
            let imbalance = (l.phase_sum_us() - l.end_to_end_us).abs();
            rep.max_imbalance_us = rep.max_imbalance_us.max(imbalance);
            if imbalance > tol_us {
                rep.balance_violations += 1;
            }
            for (i, (_, v)) in l.wall_phases().iter().enumerate() {
                rep.wall_totals_us[i] += v;
            }
            for (i, (_, v)) in l.sim_phases().iter().enumerate() {
                rep.sim_totals_us[i] += v;
            }
            let c = l.class.index();
            rep.classes[c].count += 1;
            lat[c].push(l.end_to_end_us);
            if let Some(hit) = l.deadline {
                rep.classes[c].deadline_total += 1;
                if hit {
                    rep.classes[c].deadline_hits += 1;
                }
            }
        }
        for (c, samples) in lat.iter_mut().enumerate() {
            samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
            rep.classes[c].p50_us = percentile(samples, 0.50);
            rep.classes[c].p99_us = percentile(samples, 0.99);
        }
        rep
    }

    /// The report as a JSON document (the `--profile-out` format).
    pub fn to_json(&self) -> String {
        let mut f = String::with_capacity(1024);
        f.push_str("{\"schema\":\"batsolv-trace/ledger-report/v1\",");
        f.push_str(&format!(
            "\"requests\":{},\"stragglers\":{},\"balance_violations\":{},\
             \"max_imbalance_us\":{},",
            self.requests,
            self.stragglers,
            self.balance_violations,
            json_f64(self.max_imbalance_us)
        ));
        f.push_str("\"phases\":{");
        for (i, name) in WALL_PHASES.iter().enumerate() {
            if i > 0 {
                f.push(',');
            }
            let total = self.wall_totals_us[i];
            let mean = if self.requests == 0 {
                0.0
            } else {
                total / self.requests as f64
            };
            f.push_str(&format!(
                "\"{name}\":{{\"total_us\":{},\"mean_us\":{}}}",
                json_f64(total),
                json_f64(mean)
            ));
        }
        f.push_str("},\"sim_phases\":{");
        for (i, name) in SIM_PHASES.iter().enumerate() {
            if i > 0 {
                f.push(',');
            }
            f.push_str(&format!(
                "\"{name}\":{{\"total_us\":{}}}",
                json_f64(self.sim_totals_us[i])
            ));
        }
        f.push_str("},\"classes\":{");
        for (i, class) in WorkloadClass::ALL.iter().enumerate() {
            if i > 0 {
                f.push(',');
            }
            let c = &self.classes[i];
            f.push_str(&format!(
                "\"{}\":{{\"count\":{},\"p50_us\":{},\"p99_us\":{},\
                 \"deadline_total\":{},\"deadline_hits\":{}}}",
                class.name(),
                c.count,
                json_f64(c.p50_us),
                json_f64(c.p99_us),
                c.deadline_total,
                c.deadline_hits
            ));
        }
        f.push_str("}}");
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::json::validate_json;

    #[test]
    fn classifier_matches_table_iii_bands() {
        assert_eq!(classify(0, true), WorkloadClass::IonLike);
        assert_eq!(classify(5, true), WorkloadClass::IonLike);
        assert_eq!(classify(ION_ITER_MAX, true), WorkloadClass::IonLike);
        assert_eq!(
            classify(ION_ITER_MAX + 1, true),
            WorkloadClass::ElectronLike
        );
        assert_eq!(classify(35, true), WorkloadClass::ElectronLike);
        assert_eq!(
            classify(ELECTRON_ITER_MAX, true),
            WorkloadClass::ElectronLike
        );
        assert_eq!(
            classify(ELECTRON_ITER_MAX + 1, true),
            WorkloadClass::Anomalous
        );
        assert_eq!(classify(5, false), WorkloadClass::Anomalous);
    }

    #[test]
    fn diverging_rate_overrides_iteration_band() {
        assert_eq!(classify_with_rate(5, true, 0.3), WorkloadClass::IonLike);
        assert_eq!(classify_with_rate(5, true, 1.2), WorkloadClass::Anomalous);
        // NaN rate (too-short history) falls back to the iteration band.
        assert_eq!(
            classify_with_rate(30, true, f64::NAN),
            WorkloadClass::ElectronLike
        );
    }

    #[test]
    fn class_names_round_trip() {
        for c in WorkloadClass::ALL {
            assert_eq!(WorkloadClass::from_name(c.name()), Some(c));
            assert_eq!(WorkloadClass::ALL[c.index()], c);
        }
        assert_eq!(WorkloadClass::from_name("proton-like"), None);
    }

    fn sample_ledger() -> PhaseLedger {
        let mut l = PhaseLedger {
            outcome: "converged_bicgstab",
            class: WorkloadClass::IonLike,
            iterations: 5,
            deadline: Some(true),
            end_to_end_us: 1000.0,
            queue_us: 300.0,
            linger_us: 100.0,
            solve_us: 550.0,
            sim_spmv_us: 400.0,
            sim_sync_us: 100.0,
            sim_reduction_us: 30.0,
            sim_transfer_us: 20.0,
            ..PhaseLedger::default()
        };
        l.close();
        l
    }

    #[test]
    fn close_makes_the_partition_exact() {
        let l = sample_ledger();
        assert_eq!(l.other_us, 50.0);
        assert!(l.balanced_within(1e-9));
        assert_eq!(l.phase_sum_us(), l.end_to_end_us);
    }

    #[test]
    fn ledger_json_has_every_phase_key() {
        let l = sample_ledger();
        let body = format!("{{\"probe\":1{}}}", l.json_fields());
        validate_json(&body).unwrap();
        for name in WALL_PHASES {
            assert!(body.contains(&format!("\"{name}_us\":")), "{body}");
        }
        for name in SIM_PHASES {
            assert!(body.contains(&format!("\"sim_{name}_us\":")), "{body}");
        }
        assert!(body.contains("\"class\":\"ion-like\""), "{body}");
        assert!(body.contains("\"deadline\":true"), "{body}");
    }

    #[test]
    fn aggregator_collects_authoritative_ledger_events() {
        let events = vec![
            TraceEvent {
                t_us: 0,
                trace_id: Some(7),
                kind: EventKind::Submitted { n: 16 },
            },
            TraceEvent {
                t_us: 1000,
                trace_id: Some(7),
                kind: EventKind::Ledger(sample_ledger()),
            },
        ];
        let agg = LedgerAggregator::build(&events);
        assert_eq!(agg.ledgers().len(), 1);
        assert_eq!(agg.open_count(), 0);
        assert_eq!(agg.ledgers()[0].0, 7);
        assert_eq!(agg.ledgers()[0].1.class, WorkloadClass::IonLike);
    }

    #[test]
    fn a_refused_push_closes_its_request() {
        let (submitted, refused) = (
            EventKind::Submitted { n: 16 },
            EventKind::Rejected {
                reason: "queue_full",
            },
        );
        let events: Vec<TraceEvent> = [(4, submitted.clone()), (5, submitted), (4, refused)]
            .into_iter()
            .map(|(id, kind)| TraceEvent {
                t_us: 0,
                trace_id: Some(id),
                kind,
            })
            .collect();
        let agg = LedgerAggregator::build(&events);
        assert_eq!(agg.open_count(), 1, "only the accepted request stays open");
        assert!(agg.ledgers().is_empty(), "a refused request has no ledger");
    }

    #[test]
    fn a_terminal_without_a_ledger_stays_open() {
        let terminal = EventKind::Terminal {
            outcome: "converged_bicgstab",
            iterations: 5,
            residual: 1e-11,
            rungs: 1,
        };
        let events: Vec<TraceEvent> = [EventKind::Submitted { n: 16 }, terminal]
            .into_iter()
            .map(|kind| TraceEvent {
                t_us: 0,
                trace_id: Some(3),
                kind,
            })
            .collect();
        let agg = LedgerAggregator::build(&events);
        assert!(agg.ledgers().is_empty(), "the aggregator builds no ledger");
        assert_eq!(agg.open_count(), 1);
    }

    #[test]
    fn report_aggregates_classes_and_detects_imbalance() {
        let mut bad = sample_ledger();
        bad.other_us += 500.0; // break the invariant on purpose
        let mut slow = sample_ledger();
        slow.class = WorkloadClass::ElectronLike;
        slow.iterations = 33;
        slow.end_to_end_us = 5000.0;
        slow.straggler = true;
        slow.deadline = Some(false);
        slow.close();
        let ledgers = vec![(1, sample_ledger()), (2, bad), (3, slow)];
        let rep = LedgerReport::from_ledgers(&ledgers, 1.0);
        assert_eq!(rep.requests, 3);
        assert_eq!(rep.balance_violations, 1);
        assert_eq!(rep.stragglers, 1);
        assert!(rep.max_imbalance_us >= 500.0);
        assert_eq!(rep.classes[WorkloadClass::IonLike.index()].count, 2);
        assert_eq!(rep.classes[WorkloadClass::ElectronLike.index()].count, 1);
        assert_eq!(
            rep.classes[WorkloadClass::ElectronLike.index()].p99_us,
            5000.0
        );
        assert_eq!(
            rep.classes[WorkloadClass::ElectronLike.index()].deadline_hits,
            0
        );
        assert_eq!(
            rep.classes[WorkloadClass::ElectronLike.index()].deadline_total,
            1
        );
        let doc = rep.to_json();
        validate_json(&doc).unwrap();
        assert!(doc.contains("\"schema\":\"batsolv-trace/ledger-report/v1\""));
        for name in WALL_PHASES {
            assert!(doc.contains(&format!("\"{name}\":{{")), "{doc}");
        }
    }

    #[test]
    fn percentile_edge_cases_are_deterministic() {
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[42.0], 0.5), 42.0);
        // Two samples: round((2-1)·0.5) = 1 → the larger sample.
        assert_eq!(percentile(&[10.0, 20.0], 0.5), 20.0);
        assert_eq!(percentile(&[10.0, 20.0], 0.99), 20.0);
        assert_eq!(percentile(&[10.0, 20.0], 0.0), 10.0);
    }
}
