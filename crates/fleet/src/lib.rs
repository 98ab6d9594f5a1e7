//! `batsolv-fleet` — multi-device sharded serving with work stealing
//! and CPU spill.
//!
//! The paper benchmarks one GPU against one 38-worker Skylake node; a
//! production collision-operator service gets a *node* of devices and a
//! stream of irregularly sized batches. This crate adds the serving
//! layer for that setting on top of the single-device runtime:
//!
//! * a **[`DeviceRange`] scheduler** — size-aware dispatch over a
//!   contiguous range of device shards: groups are split into chunks of
//!   at most `max_batch_size` systems, chunks of at least
//!   `min_batch_size` land on GPU shards, and sub-cutoff remainders
//!   **spill to a CPU banded-LU pool** modeled on the paper's Skylake
//!   baseline (below the cutoff the GPU launch cannot amortize and
//!   dgbsv wins);
//! * **one executor, per-shard isolation** — every shard owns its
//!   bounded queue, worker thread and a runtime
//!   [`Worker`](batsolv_runtime::Worker) (simulated device, circuit
//!   breaker, stats registry), and runs every chunk through the
//!   runtime's one batch executor, so one faulty device sheds load
//!   without stalling its peers;
//! * **deterministic work stealing** — an idle shard probes peers in a
//!   seeded, fixed victim order and steals the *oldest* queued chunk;
//!   solver numerics are device-placement-independent, so a stolen
//!   chunk's solutions are bitwise identical to unstolen execution;
//! * **deadlines** — admission fast-fails with `SubmitError::Infeasible`
//!   when the device model already prices a chunk above a request's
//!   whole deadline, and a request whose wall wait reached its deadline
//!   sheds at dispatch instead of executing;
//! * **retry with backoff, blame isolation and hedged dispatch** —
//!   retryable chunk failures (device faults, worker panics) re-queue on
//!   a *different* shard after a deterministic seeded backoff; one that
//!   ends a multi-system chunk for good re-runs its members one at a
//!   time, so only the guilty one fails; idle shards duplicate
//!   straggling peer flights after a p99-derived delay, with shared
//!   outcome slots keeping delivery exactly-once;
//! * **fleet observability** — per-shard snapshots, each filled from
//!   its worker's runtime `StatsRegistry`, roll up into a [`FleetSnapshot`] with per-shard and
//!   fleet-wide wait/latency percentiles, trace events carry the shard
//!   id end to end (one chrome-trace device lane per shard), and the
//!   Prometheus page labels every series by device.
//!
//! ```
//! use std::sync::Arc;
//! use batsolv_fleet::{FleetConfig, FleetService};
//! use batsolv_formats::SparsityPattern;
//! use batsolv_runtime::SolveRequest;
//!
//! let pattern = Arc::new(SparsityPattern::stencil_2d(8, 8, false));
//! let values: Vec<f64> = (0..pattern.num_rows())
//!     .flat_map(|r| {
//!         pattern.row_cols(r).iter().map(move |&c| {
//!             if c as usize == r { 8.0 } else { -1.0 }
//!         })
//!     })
//!     .collect();
//! let service =
//!     FleetService::start(Arc::clone(&pattern), FleetConfig::new(2)).unwrap();
//! let group: Vec<SolveRequest> = (0..16)
//!     .map(|_| SolveRequest::new(values.clone(), vec![1.0; pattern.num_rows()]))
//!     .collect();
//! let ticket = service.submit_group(group, None).unwrap();
//! for outcome in ticket.wait_all() {
//!     assert!(outcome.unwrap().residual <= 1e-10);
//! }
//! let snap = service.shutdown();
//! assert_eq!(snap.completed(), 16);
//! ```

pub mod config;
pub mod metrics;
pub mod range;
pub mod service;
mod shard;
mod spill;
pub mod stats;

pub use batsolv_runtime::{HedgeConfig, RetryPolicy};
pub use config::{DeviceProfile, FleetConfig, DEFAULT_MAX_BATCH_SIZE, DEFAULT_MIN_BATCH_SIZE};
pub use metrics::fleet_prometheus_text;
pub use range::{victim_order, DeviceRange, Placement, Route};
pub use service::{FleetService, GroupTicket};
pub use stats::{FleetSnapshot, ShardSnapshot};
