//! `batsolv-runtime` — a dynamic-batching, supervised solve service.
//!
//! The paper's batched solvers assume the caller already *has* a batch:
//! XGC hands over all ~44k mesh-node systems of a time step at once. In
//! a coupled-code or service setting the systems instead arrive one at a
//! time, from many threads, and the launch-overhead amortization that
//! makes batching pay (Figure 4) has to be manufactured at runtime. This
//! crate does that with the continuous-batching shape used by inference
//! servers, hardened for faulty inputs and a faulty backend:
//!
//! * a **bounded submission queue** with explicit backpressure — a full
//!   queue rejects with [`SubmitError::QueueFull`], never silently drops;
//! * an **admission gate** — non-finite values/RHS/guess and unusable
//!   Jacobi diagonals bounce with [`SubmitError::Rejected`] *before* they
//!   can poison a fused launch shared with healthy requests; a zero,
//!   negative or non-finite tolerance, which would stall the whole fused
//!   batch, bounces with [`SubmitError::InvalidTolerance`] even with the
//!   gate off;
//! * a **batch former** with two flush triggers — target batch size
//!   reached, or the oldest request aged past a configurable linger
//!   time, zero by default: an idle service dispatches at once, a busy
//!   one fuses what queued during the previous launch;
//! * an **escalation ladder** ([`LadderEngine`]) running each formed
//!   batch as one fused [`BatchBicgstab`](batsolv_solvers::BatchBicgstab)
//!   launch on the paper's column-major ELL, retrying stragglers with restarted GMRES and, last, the
//!   banded-LU direct solver (`dgbsv` baseline); every rung attempted is
//!   recorded in the outcome ([`RungAttempt`]);
//! * **one batch executor** ([`Worker::execute`]), shared with the
//!   fleet's shards: a panic or simulated device failure during a fused
//!   dispatch re-runs the batch one system at a time, so blame lands on
//!   the request that provokes it ([`SolveError::WorkerPanic`] /
//!   [`SolveError::DeviceFailure`]) and healthy neighbors still solve;
//! * a **supervised worker thread**: a panic outside the engine call
//!   respawns the loop, which re-runs the batch already cut;
//! * a **watchdog** thread flagging dispatches that exceed a time budget;
//! * a **circuit breaker** shedding load with [`SubmitError::CircuitOpen`]
//!   after a run of degraded batches, probing recovery via half-open
//!   state with exponential backoff;
//! * **per-request outcomes** — converged solution with iteration count,
//!   final residual, and the rung trail, or a structured error — exactly
//!   one per accepted request, delivered through a [`Ticket`];
//! * **one request lifecycle** ([`lifecycle`]), shared with the fleet's
//!   shard workers: the pending record, its exactly-once
//!   [`OutcomeSlot`], the phase clock behind every ledger, and the
//!   terminal funnel every outcome leaves through;
//! * **one stats registry per worker**, the fleet's shards included,
//!   with a full failure taxonomy (rejects by reason, breakdowns by
//!   kind, breaker trips, watchdog stalls, rung histogram) read via
//!   [`SolveService::stats`].
//!
//! ```
//! use std::sync::Arc;
//! use batsolv_formats::SparsityPattern;
//! use batsolv_gpusim::DeviceSpec;
//! use batsolv_runtime::{RuntimeConfig, SolveRequest, SolveService};
//!
//! // Shared 5-point stencil; every request supplies its own values.
//! let pattern = Arc::new(SparsityPattern::stencil_2d(8, 8, false));
//! let config = RuntimeConfig::new(DeviceSpec::v100()).with_batch_target(4);
//! let service = SolveService::start(Arc::clone(&pattern), config).unwrap();
//!
//! // Diagonally dominant values: 8 on the diagonal, -1 off it.
//! let values: Vec<f64> = (0..pattern.num_rows())
//!     .flat_map(|r| {
//!         pattern.row_cols(r).iter().map(move |&c| {
//!             if c as usize == r { 8.0 } else { -1.0 }
//!         })
//!     })
//!     .collect();
//! let ticket = service
//!     .submit(SolveRequest::new(values, vec![1.0; pattern.num_rows()]))
//!     .unwrap();
//! let solution = ticket.wait().unwrap();
//! assert!(solution.residual <= 1e-10);
//! let stats = service.shutdown();
//! assert_eq!(stats.accepted, 1);
//! ```

pub mod admission;
pub mod breaker;
pub mod classes;
pub mod config;
pub mod dispatcher;
pub mod executor;
pub mod former;
pub mod lifecycle;
pub mod metrics;
pub mod queue;
pub mod request;
pub mod reservoir;
pub mod service;
pub mod stats;
pub mod watchdog;
pub mod worker;

pub use admission::{AdmissionGate, RejectReason};
pub use breaker::{BreakerConfig, CircuitBreaker};
pub use classes::{ClassStats, ClassTracker, ClassesSnapshot};
pub use config::{HedgeConfig, RetryPolicy, RuntimeConfig};
pub use dispatcher::{
    BatchItem, BatchReport, ItemOutcome, LadderConfig, LadderEngine, SimSplit, SolveEngine,
    SolverVariant,
};
pub use executor::{BatchExecutor, ExecMode, ExecReport};
pub use former::{BatchFormer, FlushReason};
pub use lifecycle::{Lifecycle, OutcomeSlot, Pending, Phase, PhaseClock, Settled};
pub use metrics::{prometheus_text, prometheus_text_with_classes, render_class_series};
pub use queue::{BoundedQueue, PopResult, PushResult};
pub use request::{
    RequestId, RungAttempt, Solution, SolveError, SolveMethod, SolveOutcome, SolveRequest,
    SubmitError, Ticket,
};
pub use reservoir::{percentile_us, Reservoir, DEFAULT_RESERVOIR_CAPACITY};
pub use service::SolveService;
pub use stats::{StatsRegistry, StatsSnapshot, Tally};
pub use watchdog::{spawn_watchdog, WatchState};
pub use worker::{Chunk, GroupProgress, Inflight, Requeue, Role, StragglerRule, Worker};
