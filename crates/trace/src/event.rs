//! The structured event model.
//!
//! One [`TraceEvent`] is one timestamped observation: a lifecycle edge of
//! a request (submitted, dequeued, rung begun/ended, terminal outcome), a
//! simulated-device record (kernel launch, host↔device transfer), or a
//! service-level incident (breaker trip, watchdog stall, worker respawn).
//! Events that belong to a request carry its trace id (the service
//! request id, assigned at submission); batch- and service-scoped events
//! carry none.
//!
//! Serialization is hand-rolled JSON — the offline build has no serde,
//! and the format is small enough that a line writer is clearer anyway.

use crate::ledger::PhaseLedger;

/// Identifier tying events to the request that caused them. Equal to the
/// service's `RequestId` — one id namespace, no translation table.
pub type TraceId = u64;

/// One timestamped structured event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Wall-clock microseconds since the owning tracer's epoch.
    pub t_us: u64,
    /// Owning request, when the event is request-scoped.
    pub trace_id: Option<TraceId>,
    /// What happened.
    pub kind: EventKind,
}

/// Every event kind the three layers emit.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A request passed admission and entered the queue (`n` = rows).
    Submitted {
        /// System size (rows).
        n: usize,
    },
    /// A request bounced at submission.
    Rejected {
        /// Which admission check failed (`"shape"`, `"nonfinite"`, ...).
        reason: &'static str,
    },
    /// A request left the queue and joined a dispatching batch.
    Dequeued {
        /// Time spent queued, microseconds.
        wait_us: u64,
    },
    /// The former cut a batch.
    BatchFormed {
        /// Monotonic batch sequence number.
        seq: u64,
        /// Requests fused into the batch.
        size: usize,
        /// Why the batch flushed (`"target"` or `"linger"`).
        reason: &'static str,
    },
    /// An escalation rung started working on the owning request.
    RungBegin {
        /// Ladder position, 1-based.
        rung: u8,
        /// Solver name (`"bicgstab"`, `"gmres"`, `"banded-lu"`).
        method: &'static str,
    },
    /// An escalation rung finished with the owning request.
    RungEnd {
        /// Ladder position, 1-based.
        rung: u8,
        /// Solver name.
        method: &'static str,
        /// Iterations this rung spent on the system.
        iterations: u32,
        /// Residual the rung left behind.
        residual: f64,
        /// Whether this rung converged the system.
        converged: bool,
        /// Breakdown tag, if the rung broke down.
        breakdown: Option<&'static str>,
    },
    /// One solver iteration of the owning request (residual bridge from
    /// the solver-layer `IterationLogger`).
    SolverIteration {
        /// Ladder position the iteration ran on.
        rung: u8,
        /// Iteration number within the rung (restarted solvers may
        /// repeat a number at a restart boundary — see the GMRES trace).
        iteration: u32,
        /// Residual norm after the iteration.
        residual: f64,
    },
    /// A simulated kernel launch (one fused rung over a batch subset).
    KernelLaunch {
        /// Fleet shard (= simulated device index) the launch ran on.
        /// 0 for single-device services.
        shard: u32,
        /// Monotonic launch sequence number (per engine).
        seq: u64,
        /// Solver the launch ran.
        solver: &'static str,
        /// Device the launch was priced on.
        device: &'static str,
        /// Thread blocks (= batch systems) launched.
        blocks: usize,
        /// Occupancy: blocks resident per compute unit.
        resident_per_cu: u32,
        /// Occupancy: concurrent block slots device-wide.
        total_slots: u32,
        /// Dynamic shared memory per block, bytes.
        shared_per_block_bytes: usize,
        /// Workspace vectors spilled to global memory, bytes per system
        /// (the shared-memory spill decision of the workspace planner).
        spilled_vector_bytes: usize,
        /// Launch-overhead share of the simulated time, microseconds.
        launch_us: f64,
        /// Execution (makespan) share of the simulated time, µs.
        exec_us: f64,
        /// Simulated DRAM traffic, bytes.
        dram_bytes: u64,
        /// Floating-point operations executed.
        flops: u64,
        /// Synchronization points on the launch's critical path.
        syncs: u64,
        /// Reductions (exposed + SpMV-fused) on the critical path.
        reductions: u64,
        /// Sync + exposed-reduction share of the simulated time, µs.
        sync_us: f64,
        /// Steady-state synchronization points per solver iteration
        /// (classical BiCGSTAB 6, pipelined 2; classical CG 3,
        /// pipelined 1; 0 for direct solvers).
        syncs_per_iteration: f64,
    },
    /// Aggregated global-synchronization record for one launch: how many
    /// reduction barriers the critical block executed and what they cost.
    SyncPoint {
        /// Fleet shard the owning launch ran on.
        shard: u32,
        /// Launch sequence number this record belongs to.
        seq: u64,
        /// Solver that executed the syncs.
        solver: &'static str,
        /// Synchronization points on the critical path.
        syncs: u64,
        /// Simulated time spent in syncs + exposed reductions, µs.
        sim_us: f64,
    },
    /// Aggregated device-wide reduction record for one launch.
    Reduction {
        /// Fleet shard the owning launch ran on.
        shard: u32,
        /// Launch sequence number this record belongs to.
        seq: u64,
        /// Solver that executed the reductions.
        solver: &'static str,
        /// Tree reductions (exposed + fused) on the critical path.
        reductions: u64,
        /// Participants per tree: rows × concurrent blocks.
        width: u64,
        /// Levels of each tree, `ceil(log2 width)`.
        depth: u32,
    },
    /// A simulated host↔device transfer.
    Transfer {
        /// Fleet shard (device index) the copy targets.
        shard: u32,
        /// `"h2d"` or `"d2h"`.
        direction: &'static str,
        /// Payload size, bytes.
        bytes: u64,
        /// Simulated transfer time, microseconds.
        sim_us: f64,
    },
    /// The fleet scheduler assigned a batch chunk to a GPU shard.
    ShardDispatch {
        /// Target shard (simulated device index).
        shard: u32,
        /// Device profile name behind the shard.
        device: &'static str,
        /// Systems in the dispatched chunk.
        size: usize,
        /// Shard queue depth observed at dispatch (before the push).
        queue_depth: usize,
    },
    /// An idle shard stole a queued chunk from a loaded one.
    ShardSteal {
        /// The stealing (idle) shard.
        thief: u32,
        /// The shard the chunk was queued on.
        victim: u32,
        /// Systems in the stolen chunk.
        size: usize,
    },
    /// A sub-`MIN_BATCH_SIZE` batch spilled to the CPU banded-LU pool.
    CpuSpill {
        /// Systems in the spilled batch.
        size: usize,
        /// The cutoff that routed it to the host pool.
        min_batch_size: usize,
    },
    /// The owning request reached its exactly-once terminal outcome.
    Terminal {
        /// Outcome tag (`"converged_bicgstab"`, `"worker_panic"`, ...).
        outcome: &'static str,
        /// Total iterations across rungs.
        iterations: u32,
        /// Final residual.
        residual: f64,
        /// Ladder rungs attempted.
        rungs: usize,
    },
    /// A failed chunk was re-routed to a *different* shard for another
    /// attempt under the fleet's retry policy.
    RetryAttempt {
        /// Shard whose execution failed.
        from: u32,
        /// Shard the chunk was re-routed to.
        to: u32,
        /// Systems still being retried (budget-expired members shed).
        size: usize,
        /// The attempt number the re-routed chunk carries (1-based; the
        /// first retry is attempt 2).
        attempt: u32,
        /// Deterministic backoff slept before the re-route, µs.
        backoff_us: u64,
        /// Retryable failure class (`"device_failure"`, `"worker_panic"`).
        reason: &'static str,
    },
    /// An idle shard duplicated a straggling in-flight chunk (hedged
    /// dispatch); first terminal outcome per system wins.
    HedgeFired {
        /// Shard executing the straggling primary.
        primary: u32,
        /// Idle shard running the duplicate.
        hedge: u32,
        /// Systems in the duplicated chunk.
        size: usize,
        /// Age of the in-flight chunk when the hedge fired, µs.
        age_us: u64,
    },
    /// A hedge duplicate delivered first for at least one system.
    HedgeWon {
        /// The hedging shard that delivered.
        winner: u32,
        /// The straggling primary whose results were discarded.
        loser: u32,
        /// Systems the hedge delivered.
        size: usize,
    },
    /// Systems dropped before execution: their deadline budget was exhausted.
    Shed {
        /// Shard that shed the systems at dispatch.
        shard: u32,
        /// Systems shed.
        size: usize,
    },
    /// The owning request's complete latency attribution, emitted
    /// alongside its terminal outcome. The wall phases partition
    /// `[submitted, terminal]`; the `sim_*` fields split the solve phase
    /// on the simulated-device clock (see [`crate::ledger`]).
    Ledger(PhaseLedger),
    /// The circuit breaker tripped open.
    BreakerTrip,
    /// The watchdog flagged a dispatch past its budget.
    WatchdogStall {
        /// The exceeded budget, microseconds.
        budget_us: u64,
    },
    /// The supervisor respawned a panicked worker loop.
    WorkerRespawn,
    /// The flight recorder dumped its ring.
    FlightDump {
        /// What triggered the dump.
        reason: &'static str,
        /// Events captured in the dump.
        events: usize,
        /// Events the ring had already evicted.
        dropped: u64,
    },
}

impl EventKind {
    /// Stable snake_case discriminator used in every export format.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Submitted { .. } => "submitted",
            EventKind::Rejected { .. } => "rejected",
            EventKind::Dequeued { .. } => "dequeued",
            EventKind::BatchFormed { .. } => "batch_formed",
            EventKind::RungBegin { .. } => "rung_begin",
            EventKind::RungEnd { .. } => "rung_end",
            EventKind::SolverIteration { .. } => "solver_iteration",
            EventKind::KernelLaunch { .. } => "kernel_launch",
            EventKind::SyncPoint { .. } => "sync_point",
            EventKind::Reduction { .. } => "reduction",
            EventKind::Transfer { .. } => "transfer",
            EventKind::ShardDispatch { .. } => "shard_dispatch",
            EventKind::ShardSteal { .. } => "shard_steal",
            EventKind::CpuSpill { .. } => "cpu_spill",
            EventKind::Terminal { .. } => "terminal",
            EventKind::RetryAttempt { .. } => "retry_attempt",
            EventKind::HedgeFired { .. } => "hedge_fired",
            EventKind::HedgeWon { .. } => "hedge_won",
            EventKind::Shed { .. } => "shed",
            EventKind::Ledger(..) => "ledger",
            EventKind::BreakerTrip => "breaker_trip",
            EventKind::WatchdogStall { .. } => "watchdog_stall",
            EventKind::WorkerRespawn => "worker_respawn",
            EventKind::FlightDump { .. } => "flight_dump",
        }
    }

    /// Re-tag a simulated-device record with the fleet shard that owns
    /// it. The timeline builders default to shard 0 (the single-device
    /// service); fleet shards re-stamp records as they emit them. A
    /// no-op for kinds that carry no shard.
    pub fn with_shard(mut self, shard_id: u32) -> EventKind {
        match &mut self {
            EventKind::KernelLaunch { shard, .. }
            | EventKind::SyncPoint { shard, .. }
            | EventKind::Reduction { shard, .. }
            | EventKind::Transfer { shard, .. } => *shard = shard_id,
            _ => {}
        }
        self
    }

    /// The fleet shard a simulated-device record is tagged with, when
    /// the kind carries one.
    pub fn shard(&self) -> Option<u32> {
        match self {
            EventKind::KernelLaunch { shard, .. }
            | EventKind::SyncPoint { shard, .. }
            | EventKind::Reduction { shard, .. }
            | EventKind::Transfer { shard, .. }
            | EventKind::ShardDispatch { shard, .. }
            | EventKind::Shed { shard, .. } => Some(*shard),
            EventKind::ShardSteal { thief, .. } => Some(*thief),
            EventKind::RetryAttempt { to, .. } => Some(*to),
            EventKind::HedgeFired { hedge, .. } => Some(*hedge),
            EventKind::HedgeWon { winner, .. } => Some(*winner),
            _ => None,
        }
    }
}

/// Format a float as a JSON value (`null` for non-finite — JSON has no
/// Inf/NaN literals, and a poisoned residual must not poison the log).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl TraceEvent {
    /// One JSON object (no trailing newline): the JSONL line format.
    pub fn to_json(&self) -> String {
        let mut f = String::with_capacity(96);
        f.push_str(&format!("{{\"t_us\":{},", self.t_us));
        match self.trace_id {
            Some(id) => f.push_str(&format!("\"trace_id\":{id},")),
            None => f.push_str("\"trace_id\":null,"),
        }
        f.push_str(&format!("\"kind\":\"{}\"", self.kind.name()));
        match &self.kind {
            EventKind::Submitted { n } => f.push_str(&format!(",\"n\":{n}")),
            EventKind::Rejected { reason } => {
                f.push_str(&format!(",\"reason\":\"{}\"", json_escape(reason)));
            }
            EventKind::Dequeued { wait_us } => f.push_str(&format!(",\"wait_us\":{wait_us}")),
            EventKind::BatchFormed { seq, size, reason } => {
                f.push_str(&format!(
                    ",\"seq\":{seq},\"size\":{size},\"reason\":\"{}\"",
                    json_escape(reason)
                ));
            }
            EventKind::RungBegin { rung, method } => {
                f.push_str(&format!(",\"rung\":{rung},\"method\":\"{method}\""));
            }
            EventKind::RungEnd {
                rung,
                method,
                iterations,
                residual,
                converged,
                breakdown,
            } => {
                f.push_str(&format!(
                    ",\"rung\":{rung},\"method\":\"{method}\",\"iterations\":{iterations},\
                     \"residual\":{},\"converged\":{converged},\"breakdown\":{}",
                    json_f64(*residual),
                    match breakdown {
                        Some(tag) => format!("\"{}\"", json_escape(tag)),
                        None => "null".to_string(),
                    }
                ));
            }
            EventKind::SolverIteration {
                rung,
                iteration,
                residual,
            } => {
                f.push_str(&format!(
                    ",\"rung\":{rung},\"iteration\":{iteration},\"residual\":{}",
                    json_f64(*residual)
                ));
            }
            EventKind::KernelLaunch {
                shard,
                seq,
                solver,
                device,
                blocks,
                resident_per_cu,
                total_slots,
                shared_per_block_bytes,
                spilled_vector_bytes,
                launch_us,
                exec_us,
                dram_bytes,
                flops,
                syncs,
                reductions,
                sync_us,
                syncs_per_iteration,
            } => {
                f.push_str(&format!(
                    ",\"shard\":{shard},\"seq\":{seq},\"solver\":\"{solver}\",\"device\":\"{}\",\
                     \"blocks\":{blocks},\"resident_per_cu\":{resident_per_cu},\
                     \"total_slots\":{total_slots},\
                     \"shared_per_block_bytes\":{shared_per_block_bytes},\
                     \"spilled_vector_bytes\":{spilled_vector_bytes},\
                     \"launch_us\":{},\"exec_us\":{},\"dram_bytes\":{dram_bytes},\
                     \"flops\":{flops},\"syncs\":{syncs},\"reductions\":{reductions},\
                     \"sync_us\":{},\"syncs_per_iteration\":{}",
                    json_escape(device),
                    json_f64(*launch_us),
                    json_f64(*exec_us),
                    json_f64(*sync_us),
                    json_f64(*syncs_per_iteration),
                ));
            }
            EventKind::SyncPoint {
                shard,
                seq,
                solver,
                syncs,
                sim_us,
            } => {
                f.push_str(&format!(
                    ",\"shard\":{shard},\"seq\":{seq},\"solver\":\"{solver}\",\
                     \"syncs\":{syncs},\"sim_us\":{}",
                    json_f64(*sim_us)
                ));
            }
            EventKind::Reduction {
                shard,
                seq,
                solver,
                reductions,
                width,
                depth,
            } => {
                f.push_str(&format!(
                    ",\"shard\":{shard},\"seq\":{seq},\"solver\":\"{solver}\",\
                     \"reductions\":{reductions},\"width\":{width},\"depth\":{depth}"
                ));
            }
            EventKind::Transfer {
                shard,
                direction,
                bytes,
                sim_us,
            } => {
                f.push_str(&format!(
                    ",\"shard\":{shard},\"direction\":\"{direction}\",\"bytes\":{bytes},\
                     \"sim_us\":{}",
                    json_f64(*sim_us)
                ));
            }
            EventKind::ShardDispatch {
                shard,
                device,
                size,
                queue_depth,
            } => {
                f.push_str(&format!(
                    ",\"shard\":{shard},\"device\":\"{}\",\"size\":{size},\
                     \"queue_depth\":{queue_depth}",
                    json_escape(device)
                ));
            }
            EventKind::ShardSteal {
                thief,
                victim,
                size,
            } => {
                f.push_str(&format!(
                    ",\"thief\":{thief},\"victim\":{victim},\"size\":{size}"
                ));
            }
            EventKind::CpuSpill {
                size,
                min_batch_size,
            } => {
                f.push_str(&format!(
                    ",\"size\":{size},\"min_batch_size\":{min_batch_size}"
                ));
            }
            EventKind::Terminal {
                outcome,
                iterations,
                residual,
                rungs,
            } => {
                f.push_str(&format!(
                    ",\"outcome\":\"{outcome}\",\"iterations\":{iterations},\
                     \"residual\":{},\"rungs\":{rungs}",
                    json_f64(*residual)
                ));
            }
            EventKind::RetryAttempt {
                from,
                to,
                size,
                attempt,
                backoff_us,
                reason,
            } => {
                f.push_str(&format!(
                    ",\"from\":{from},\"to\":{to},\"size\":{size},\"attempt\":{attempt},\
                     \"backoff_us\":{backoff_us},\"reason\":\"{}\"",
                    json_escape(reason)
                ));
            }
            EventKind::HedgeFired {
                primary,
                hedge,
                size,
                age_us,
            } => {
                f.push_str(&format!(
                    ",\"primary\":{primary},\"hedge\":{hedge},\"size\":{size},\
                     \"age_us\":{age_us}"
                ));
            }
            EventKind::HedgeWon {
                winner,
                loser,
                size,
            } => {
                f.push_str(&format!(
                    ",\"winner\":{winner},\"loser\":{loser},\"size\":{size}"
                ));
            }
            EventKind::Shed { shard, size } => {
                f.push_str(&format!(",\"shard\":{shard},\"size\":{size}"));
            }
            EventKind::Ledger(ledger) => f.push_str(&ledger.json_fields()),
            EventKind::WatchdogStall { budget_us } => {
                f.push_str(&format!(",\"budget_us\":{budget_us}"));
            }
            EventKind::FlightDump {
                reason,
                events,
                dropped,
            } => {
                f.push_str(&format!(
                    ",\"reason\":\"{}\",\"events\":{events},\"dropped\":{dropped}",
                    json_escape(reason)
                ));
            }
            EventKind::BreakerTrip | EventKind::WorkerRespawn => {}
        }
        f.push('}');
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::json::validate_json;

    #[test]
    fn every_kind_serializes_to_valid_json() {
        let kinds = vec![
            EventKind::Submitted { n: 992 },
            EventKind::Rejected {
                reason: "nonfinite",
            },
            EventKind::Dequeued { wait_us: 1234 },
            EventKind::BatchFormed {
                seq: 7,
                size: 100,
                reason: "target",
            },
            EventKind::RungBegin {
                rung: 1,
                method: "bicgstab",
            },
            EventKind::RungEnd {
                rung: 2,
                method: "gmres",
                iterations: 30,
                residual: 1e-11,
                converged: true,
                breakdown: None,
            },
            EventKind::SolverIteration {
                rung: 1,
                iteration: 4,
                residual: 0.5,
            },
            EventKind::KernelLaunch {
                shard: 2,
                seq: 3,
                solver: "bicgstab",
                device: "NVIDIA V100-16GB",
                blocks: 100,
                resident_per_cu: 2,
                total_slots: 160,
                shared_per_block_bytes: 47_616,
                spilled_vector_bytes: 23_808,
                launch_us: 10.0,
                exec_us: 85.5,
                dram_bytes: 1 << 20,
                flops: 1 << 24,
                syncs: 188,
                reductions: 188,
                sync_us: 42.5,
                syncs_per_iteration: 6.0,
            },
            EventKind::SyncPoint {
                shard: 0,
                seq: 3,
                solver: "bicgstab",
                syncs: 188,
                sim_us: 42.5,
            },
            EventKind::Reduction {
                shard: 1,
                seq: 3,
                solver: "pipelined-cg",
                reductions: 31,
                width: 992 * 64,
                depth: 16,
            },
            EventKind::Transfer {
                shard: 5,
                direction: "h2d",
                bytes: 65536,
                sim_us: 12.5,
            },
            EventKind::ShardDispatch {
                shard: 3,
                device: "NVIDIA V100-16GB",
                size: 96,
                queue_depth: 2,
            },
            EventKind::ShardSteal {
                thief: 1,
                victim: 0,
                size: 64,
            },
            EventKind::CpuSpill {
                size: 7,
                min_batch_size: 8,
            },
            EventKind::Terminal {
                outcome: "converged_bicgstab",
                iterations: 23,
                residual: 4.2e-11,
                rungs: 1,
            },
            EventKind::RetryAttempt {
                from: 0,
                to: 2,
                size: 8,
                attempt: 2,
                backoff_us: 1500,
                reason: "device_failure",
            },
            EventKind::HedgeFired {
                primary: 0,
                hedge: 1,
                size: 16,
                age_us: 40_000,
            },
            EventKind::HedgeWon {
                winner: 1,
                loser: 0,
                size: 16,
            },
            EventKind::Shed { shard: 2, size: 4 },
            EventKind::Ledger(crate::ledger::PhaseLedger {
                outcome: "converged_bicgstab",
                class: crate::ledger::WorkloadClass::IonLike,
                iterations: 5,
                deadline: Some(true),
                end_to_end_us: 1000.0,
                queue_us: 400.0,
                solve_us: 600.0,
                ..crate::ledger::PhaseLedger::default()
            }),
            EventKind::BreakerTrip,
            EventKind::WatchdogStall { budget_us: 5000 },
            EventKind::WorkerRespawn,
            EventKind::FlightDump {
                reason: "watchdog_stall",
                events: 256,
                dropped: 12,
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let name = kind.name();
            let ev = TraceEvent {
                t_us: 1000 + i as u64,
                trace_id: if i % 2 == 0 { Some(i as u64) } else { None },
                kind,
            };
            let line = ev.to_json();
            validate_json(&line).unwrap_or_else(|e| panic!("{name}: {e}\n{line}"));
            assert!(line.contains(&format!("\"kind\":\"{name}\"")), "{line}");
        }
    }

    #[test]
    fn non_finite_residuals_become_null() {
        let ev = TraceEvent {
            t_us: 0,
            trace_id: Some(1),
            kind: EventKind::Terminal {
                outcome: "not_converged",
                iterations: 500,
                residual: f64::INFINITY,
                rungs: 3,
            },
        };
        let line = ev.to_json();
        assert!(line.contains("\"residual\":null"), "{line}");
        validate_json(&line).unwrap();
    }

    #[test]
    fn escaping_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn with_shard_retags_device_records_only() {
        let kind = EventKind::Transfer {
            shard: 0,
            direction: "h2d",
            bytes: 64,
            sim_us: 1.0,
        };
        assert_eq!(kind.clone().with_shard(4).shard(), Some(4));
        // Non-device kinds pass through unchanged.
        let kept = EventKind::Submitted { n: 8 }.with_shard(4);
        assert_eq!(kept, EventKind::Submitted { n: 8 });
        assert_eq!(kept.shard(), None);
        // Steals report the thief's shard.
        let steal = EventKind::ShardSteal {
            thief: 2,
            victim: 0,
            size: 16,
        };
        assert_eq!(steal.shard(), Some(2));
    }
}
