//! Structured tracing and telemetry for the batched-solver stack.
//!
//! The paper's workload is a service: thousands of small collision-operator
//! systems per plasma time step, batched and solved on an accelerator
//! behind an escalation ladder. When something goes wrong — a breaker
//! trips, a watchdog fires, one system refuses to converge — aggregate
//! counters say *that* it happened but not *which request* or *which
//! rung*. This crate adds the missing causal record.
//!
//! # Model
//!
//! * [`TraceEvent`] — one timestamped observation, optionally tied to a
//!   request via its [`TraceId`] (the service request id).
//! * [`TraceSink`] — where events go. [`NoopSink`] is the disabled
//!   instantiation; [`MemorySink`] captures for tests and experiments;
//!   [`JsonlFileSink`](export::jsonl::JsonlFileSink) streams to disk;
//!   [`FanoutSink`] broadcasts.
//! * [`Tracer`] — the clonable handle layers emit through. Disabled it
//!   is a `None` and `emit` is a single branch; no event is built.
//! * [`FlightRecorder`] — fixed-capacity ring of recent events, dumped
//!   automatically on breaker trips and watchdog stalls.
//!
//! # Zero-cost guarantee
//!
//! The per-iteration hot path never sees this crate's dynamic dispatch.
//! Solver kernels stay generic over the solver crate's `IterationLogger`
//! (monomorphized; `NoopLogger` compiles to nothing) and the runtime
//! only bridges residuals into a sink when a tracer is attached. Layers
//! that emit per request or per batch hold `Arc<dyn TraceSink>` — an
//! indirect call at that granularity is noise next to a fused solve.
//!
//! # Exporters
//!
//! [`export::jsonl`] renders the raw line log, [`export::chrome`] a
//! `chrome://tracing` timeline (wall-clock request spans + cumulative
//! sim-time device lanes), and [`export::prom`] Prometheus text pages.

//! # Latency attribution
//!
//! [`ledger`] decomposes each request's end-to-end wall time into a
//! phase partition (queue, linger, transit, backoff, hedge, solve,
//! spill, …) with a phase-sum invariant, plus the Table III workload
//! classifier (ion-like / electron-like / anomalous) that labels every
//! downstream observation. [`metrics`] is the typed registry both
//! Prometheus pages are built from, with log-bucketed histograms,
//! exemplar trace ids, and SLO burn-rate windows.

pub mod event;
pub mod export;
pub mod flight;
pub mod ledger;
pub mod metrics;
pub mod sink;
pub mod tracer;

pub use event::{json_escape, EventKind, TraceEvent, TraceId};
pub use export::chrome::chrome_trace;
pub use export::json::validate_json;
pub use export::jsonl::{to_jsonl, write_jsonl, JsonlFileSink};
pub use export::prom::{check_prom_conformance, parse_prom_labeled, parse_prom_value};
pub use flight::{FlightDump, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use ledger::{
    classify, classify_with_rate, LedgerAggregator, LedgerReport, PhaseLedger, WorkloadClass,
    CLASS_COUNT, ELECTRON_ITER_MAX, ION_ITER_MAX, SIM_PHASES, WALL_PHASES,
};
pub use metrics::{MetricsRegistry, SloWindow, DEFAULT_SLO_TARGET, SLO_WINDOWS};
pub use sink::{FanoutSink, MemorySink, NoopSink, TraceSink};
pub use tracer::Tracer;
