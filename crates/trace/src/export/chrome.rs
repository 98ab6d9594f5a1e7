//! Chrome trace-event export (`chrome://tracing` / Perfetto).
//!
//! Two synthetic processes:
//!
//! * **pid 1 — requests (wall clock)**: one track (`tid`) per trace id.
//!   The request span runs from its `submitted` event to its `terminal`
//!   event; rung spans (`rung_begin`/`rung_end`) nest inside it on the
//!   same track. Service incidents render as instants.
//! * **pid 2 — simulated devices**: the kernel-launch and transfer
//!   records laid end to end on a cumulative sim-time cursor (the
//!   simulator prices time; it does not schedule it on the wall clock).
//!   Each fleet shard gets its own pair of lanes (kernels + transfers)
//!   keyed by the shard id the records carry, so a multi-device run
//!   renders one timeline lane per device instead of collapsing onto
//!   one. Shard 0 is the single-device default.
//!
//! All timestamps are microseconds, which is Chrome's native `ts` unit.

use std::collections::{BTreeSet, HashMap};

use crate::event::{json_escape, EventKind, TraceEvent, TraceId};

const PID_REQUESTS: u64 = 1;
const PID_SIM_DEVICE: u64 = 2;
const TID_SERVICE: u64 = 0;

/// Kernel lane of one shard: shards get interleaved (kernel, transfer)
/// tid pairs starting at 1, so shard 0 keeps the historical tids 1/2.
fn tid_kernels(shard: u32) -> u64 {
    1 + 2 * shard as u64
}

/// Transfer lane of one shard.
fn tid_transfers(shard: u32) -> u64 {
    2 + 2 * shard as u64
}

fn complete(name: &str, pid: u64, tid: u64, ts_us: f64, dur_us: f64, args: &str) -> String {
    format!(
        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us:?},\
         \"dur\":{:?},\"args\":{{{args}}}}}",
        json_escape(name),
        dur_us.max(1.0),
    )
}

fn instant(name: &str, pid: u64, tid: u64, ts_us: f64, args: &str) -> String {
    format!(
        "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"g\",\"pid\":{pid},\"tid\":{tid},\
         \"ts\":{ts_us:?},\"args\":{{{args}}}}}",
        json_escape(name),
    )
}

/// Flow event (`ph:"s"` start / `ph:"f"` finish): the arrow stitching a
/// retry or hedge across shard lanes. Start and finish share an `id`.
fn flow(name: &str, id: u64, ph: &str, pid: u64, tid: u64, ts_us: f64) -> String {
    let bind = if ph == "f" { ",\"bp\":\"e\"" } else { "" };
    format!(
        "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"id\":{id},\"pid\":{pid},\"tid\":{tid},\
         \"ts\":{ts_us:?}{bind}}}",
        json_escape(name),
    )
}

fn metadata(pid: u64, process_name: &str) -> String {
    format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"{}\"}}}}",
        json_escape(process_name),
    )
}

fn thread_metadata(pid: u64, tid: u64, thread_name: &str) -> String {
    format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}}",
        json_escape(thread_name),
    )
}

/// Render a captured event stream as a Chrome trace JSON document.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out: Vec<String> = vec![
        metadata(PID_REQUESTS, "requests (wall clock)"),
        metadata(PID_SIM_DEVICE, "simulated device"),
    ];

    // Open spans awaiting their closing event.
    let mut submitted_at: HashMap<TraceId, u64> = HashMap::new();
    let mut rung_open: HashMap<(TraceId, u8), (u64, &'static str)> = HashMap::new();
    // One cumulative sim-time cursor per shard (device): each shard's
    // kernels and transfers advance its own lane independently.
    let mut sim_cursor_us: HashMap<u32, f64> = HashMap::new();
    let mut shards_seen: BTreeSet<u32> = BTreeSet::new();
    // Flow-arrow state: monotone flow ids, plus fired hedges awaiting
    // their `hedge_won` closing edge, keyed by the unordered shard pair.
    let mut flow_seq: u64 = 0;
    let mut open_hedges: HashMap<(u32, u32), u64> = HashMap::new();

    for ev in events {
        let ts = ev.t_us as f64;
        match &ev.kind {
            EventKind::Submitted { n } => {
                if let Some(id) = ev.trace_id {
                    submitted_at.insert(id, ev.t_us);
                    // Queue-wait and solve both live inside this span;
                    // emitted when the terminal event closes it.
                    let _ = n;
                }
            }
            EventKind::Terminal {
                outcome,
                iterations,
                residual,
                rungs,
            } => {
                if let Some(id) = ev.trace_id {
                    let start = submitted_at.remove(&id).unwrap_or(ev.t_us);
                    out.push(complete(
                        &format!("req {id}: {outcome}"),
                        PID_REQUESTS,
                        id,
                        start as f64,
                        (ev.t_us - start) as f64,
                        &format!(
                            "\"outcome\":\"{outcome}\",\"iterations\":{iterations},\
                             \"rungs\":{rungs},\"residual\":\"{residual:e}\""
                        ),
                    ));
                }
            }
            EventKind::RungBegin { rung, method } => {
                if let Some(id) = ev.trace_id {
                    rung_open.insert((id, *rung), (ev.t_us, method));
                }
            }
            EventKind::RungEnd {
                rung,
                method,
                iterations,
                residual,
                converged,
                ..
            } => {
                if let Some(id) = ev.trace_id {
                    let (start, _) = rung_open.remove(&(id, *rung)).unwrap_or((ev.t_us, method));
                    out.push(complete(
                        &format!("rung {rung}: {method}"),
                        PID_REQUESTS,
                        id,
                        start as f64,
                        (ev.t_us - start) as f64,
                        &format!(
                            "\"iterations\":{iterations},\"converged\":{converged},\
                             \"residual\":\"{residual:e}\""
                        ),
                    ));
                }
            }
            EventKind::KernelLaunch {
                shard,
                seq,
                solver,
                blocks,
                resident_per_cu,
                total_slots,
                shared_per_block_bytes,
                spilled_vector_bytes,
                launch_us,
                exec_us,
                syncs,
                reductions,
                sync_us,
                syncs_per_iteration,
                ..
            } => {
                let dur = launch_us + exec_us;
                let cursor = sim_cursor_us.entry(*shard).or_insert(0.0);
                shards_seen.insert(*shard);
                out.push(complete(
                    &format!("{solver} launch #{seq}"),
                    PID_SIM_DEVICE,
                    tid_kernels(*shard),
                    *cursor,
                    dur,
                    &format!(
                        "\"shard\":{shard},\"blocks\":{blocks},\
                         \"resident_per_cu\":{resident_per_cu},\
                         \"total_slots\":{total_slots},\
                         \"shared_per_block_bytes\":{shared_per_block_bytes},\
                         \"spilled_vector_bytes\":{spilled_vector_bytes},\
                         \"launch_us\":{launch_us:?},\"exec_us\":{exec_us:?},\
                         \"syncs\":{syncs},\"reductions\":{reductions},\
                         \"sync_us\":{sync_us:?},\
                         \"syncs_per_iteration\":{syncs_per_iteration:?}"
                    ),
                ));
                *cursor += dur.max(0.0);
            }
            EventKind::SyncPoint {
                shard,
                seq,
                solver,
                syncs,
                sim_us,
            } => {
                // Markers at the owning launch's position on its shard's
                // lane; the kernel span already accounts for their time.
                let cursor = sim_cursor_us.get(shard).copied().unwrap_or(0.0);
                out.push(instant(
                    &format!("{solver} #{seq}: {syncs} syncs"),
                    PID_SIM_DEVICE,
                    tid_kernels(*shard),
                    cursor,
                    &format!("\"syncs\":{syncs},\"sim_us\":{sim_us:?}"),
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
                let cursor = sim_cursor_us.get(shard).copied().unwrap_or(0.0);
                out.push(instant(
                    &format!("{solver} #{seq}: {reductions} reductions"),
                    PID_SIM_DEVICE,
                    tid_kernels(*shard),
                    cursor,
                    &format!("\"reductions\":{reductions},\"width\":{width},\"depth\":{depth}"),
                ));
            }
            EventKind::Transfer {
                shard,
                direction,
                bytes,
                sim_us,
            } => {
                let cursor = sim_cursor_us.entry(*shard).or_insert(0.0);
                shards_seen.insert(*shard);
                out.push(complete(
                    &format!("{direction} {bytes} B"),
                    PID_SIM_DEVICE,
                    tid_transfers(*shard),
                    *cursor,
                    *sim_us,
                    &format!("\"shard\":{shard},\"bytes\":{bytes}"),
                ));
                *cursor += sim_us.max(0.0);
            }
            EventKind::ShardDispatch {
                shard,
                device,
                size,
                queue_depth,
            } => {
                out.push(instant(
                    &format!("dispatch -> shard {shard} ({size} systems)"),
                    PID_REQUESTS,
                    TID_SERVICE,
                    ts,
                    &format!(
                        "\"shard\":{shard},\"device\":\"{}\",\"size\":{size},\
                         \"queue_depth\":{queue_depth}",
                        json_escape(device)
                    ),
                ));
            }
            EventKind::ShardSteal {
                thief,
                victim,
                size,
            } => {
                out.push(instant(
                    &format!("steal: shard {thief} <- shard {victim} ({size} systems)"),
                    PID_REQUESTS,
                    TID_SERVICE,
                    ts,
                    &format!("\"thief\":{thief},\"victim\":{victim},\"size\":{size}"),
                ));
            }
            EventKind::CpuSpill {
                size,
                min_batch_size,
            } => {
                out.push(instant(
                    &format!("spill -> cpu pool ({size} < {min_batch_size})"),
                    PID_REQUESTS,
                    TID_SERVICE,
                    ts,
                    &format!("\"size\":{size},\"min_batch_size\":{min_batch_size}"),
                ));
            }
            EventKind::Rejected { reason } => {
                out.push(instant(
                    &format!("rejected: {reason}"),
                    PID_REQUESTS,
                    ev.trace_id.unwrap_or(TID_SERVICE),
                    ts,
                    "",
                ));
            }
            EventKind::BatchFormed { seq, size, reason } => {
                out.push(instant(
                    &format!("batch #{seq} ({size}, {reason})"),
                    PID_REQUESTS,
                    TID_SERVICE,
                    ts,
                    &format!("\"size\":{size}"),
                ));
            }
            EventKind::BreakerTrip => {
                out.push(instant("breaker trip", PID_REQUESTS, TID_SERVICE, ts, ""));
            }
            EventKind::WatchdogStall { budget_us } => {
                out.push(instant(
                    "watchdog stall",
                    PID_REQUESTS,
                    TID_SERVICE,
                    ts,
                    &format!("\"budget_us\":{budget_us}"),
                ));
            }
            EventKind::WorkerRespawn => {
                out.push(instant("worker respawn", PID_REQUESTS, TID_SERVICE, ts, ""));
            }
            EventKind::FlightDump { reason, events, .. } => {
                out.push(instant(
                    &format!("flight dump: {reason}"),
                    PID_REQUESTS,
                    TID_SERVICE,
                    ts,
                    &format!("\"events\":{events}"),
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
                out.push(instant(
                    &format!("retry #{attempt}: shard {from} -> shard {to} ({size} systems)"),
                    PID_REQUESTS,
                    TID_SERVICE,
                    ts,
                    &format!(
                        "\"from\":{from},\"to\":{to},\"size\":{size},\
                         \"attempt\":{attempt},\"backoff_us\":{backoff_us},\
                         \"reason\":\"{}\"",
                        json_escape(reason)
                    ),
                ));
                // Stitch the re-route across lanes: an arrow from the
                // failing dispatch to where the retried chunk lands
                // after its backoff sleep.
                flow_seq += 1;
                out.push(flow(
                    &format!("retry #{attempt}: {from} -> {to}"),
                    flow_seq,
                    "s",
                    PID_REQUESTS,
                    TID_SERVICE,
                    ts,
                ));
                out.push(flow(
                    &format!("retry #{attempt}: {from} -> {to}"),
                    flow_seq,
                    "f",
                    PID_REQUESTS,
                    TID_SERVICE,
                    ts + *backoff_us as f64,
                ));
            }
            EventKind::HedgeFired {
                primary,
                hedge,
                size,
                age_us,
            } => {
                out.push(instant(
                    &format!("hedge: shard {hedge} duplicates shard {primary} ({size} systems)"),
                    PID_REQUESTS,
                    TID_SERVICE,
                    ts,
                    &format!(
                        "\"primary\":{primary},\"hedge\":{hedge},\"size\":{size},\
                         \"age_us\":{age_us}"
                    ),
                ));
                // Open a flow arrow from the straggling primary; the
                // matching `hedge_won` edge closes it at the winner.
                flow_seq += 1;
                let key = (*primary.min(hedge), *primary.max(hedge));
                open_hedges.insert(key, flow_seq);
                out.push(flow(
                    &format!("hedge: {primary} -> {hedge}"),
                    flow_seq,
                    "s",
                    PID_REQUESTS,
                    TID_SERVICE,
                    ts,
                ));
            }
            EventKind::HedgeWon {
                winner,
                loser,
                size,
            } => {
                out.push(instant(
                    &format!("hedge won: shard {winner} beat shard {loser} ({size} systems)"),
                    PID_REQUESTS,
                    TID_SERVICE,
                    ts,
                    &format!("\"winner\":{winner},\"loser\":{loser},\"size\":{size}"),
                ));
                let key = (*winner.min(loser), *winner.max(loser));
                if let Some(id) = open_hedges.remove(&key) {
                    out.push(flow(
                        &format!("hedge won: {winner}"),
                        id,
                        "f",
                        PID_REQUESTS,
                        TID_SERVICE,
                        ts,
                    ));
                }
            }
            EventKind::Shed { shard, size } => {
                out.push(instant(
                    &format!("shed: shard {shard} drops {size} systems"),
                    PID_REQUESTS,
                    TID_SERVICE,
                    ts,
                    &format!("\"shard\":{shard},\"size\":{size}"),
                ));
            }
            // Per-iteration residuals, queue plumbing, and the terminal
            // ledger summary stay in the JSONL log; as Chrome spans they
            // would only be noise.
            EventKind::Dequeued { .. }
            | EventKind::SolverIteration { .. }
            | EventKind::Ledger(..) => {}
        }
    }

    // Name the device lanes so Perfetto shows "device N kernels" instead
    // of bare tids — one lane pair per shard that emitted records.
    for shard in &shards_seen {
        out.push(thread_metadata(
            PID_SIM_DEVICE,
            tid_kernels(*shard),
            &format!("device {shard} kernels"),
        ));
        out.push(thread_metadata(
            PID_SIM_DEVICE,
            tid_transfers(*shard),
            &format!("device {shard} transfers"),
        ));
    }

    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}",
        out.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::json::validate_json;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                t_us: 10,
                trace_id: Some(4),
                kind: EventKind::Submitted { n: 16 },
            },
            TraceEvent {
                t_us: 20,
                trace_id: Some(4),
                kind: EventKind::RungBegin {
                    rung: 1,
                    method: "bicgstab",
                },
            },
            TraceEvent {
                t_us: 21,
                trace_id: None,
                kind: EventKind::KernelLaunch {
                    shard: 0,
                    seq: 0,
                    solver: "bicgstab",
                    device: "V100",
                    blocks: 1,
                    resident_per_cu: 2,
                    total_slots: 160,
                    shared_per_block_bytes: 1024,
                    spilled_vector_bytes: 0,
                    launch_us: 10.0,
                    exec_us: 40.0,
                    dram_bytes: 4096,
                    flops: 1 << 16,
                    syncs: 54,
                    reductions: 54,
                    sync_us: 3.2,
                    syncs_per_iteration: 6.0,
                },
            },
            TraceEvent {
                t_us: 22,
                trace_id: None,
                kind: EventKind::SyncPoint {
                    shard: 0,
                    seq: 0,
                    solver: "bicgstab",
                    syncs: 54,
                    sim_us: 27.0,
                },
            },
            TraceEvent {
                t_us: 23,
                trace_id: None,
                kind: EventKind::Reduction {
                    shard: 0,
                    seq: 0,
                    solver: "bicgstab",
                    reductions: 54,
                    width: 992 * 64,
                    depth: 16,
                },
            },
            TraceEvent {
                t_us: 25,
                trace_id: None,
                kind: EventKind::Transfer {
                    shard: 0,
                    direction: "d2h",
                    bytes: 128,
                    sim_us: 11.0,
                },
            },
            TraceEvent {
                t_us: 30,
                trace_id: Some(4),
                kind: EventKind::RungEnd {
                    rung: 1,
                    method: "bicgstab",
                    iterations: 9,
                    residual: 1e-11,
                    converged: true,
                    breakdown: None,
                },
            },
            TraceEvent {
                t_us: 40,
                trace_id: Some(4),
                kind: EventKind::Terminal {
                    outcome: "converged_bicgstab",
                    iterations: 9,
                    residual: 1e-11,
                    rungs: 1,
                },
            },
            TraceEvent {
                t_us: 50,
                trace_id: None,
                kind: EventKind::WatchdogStall { budget_us: 5000 },
            },
        ]
    }

    #[test]
    fn produces_valid_json_document() {
        let doc = chrome_trace(&sample());
        validate_json(&doc).unwrap();
        assert!(doc.contains("\"traceEvents\""));
    }

    #[test]
    fn request_and_rung_spans_share_a_track() {
        let doc = chrome_trace(&sample());
        assert!(doc.contains("req 4: converged_bicgstab"), "{doc}");
        assert!(doc.contains("rung 1: bicgstab"), "{doc}");
        // Both live on pid 1, tid = trace id 4.
        assert_eq!(doc.matches("\"pid\":1,\"tid\":4").count(), 2, "{doc}");
    }

    #[test]
    fn sim_device_events_advance_a_cumulative_cursor() {
        let doc = chrome_trace(&sample());
        // Kernel at cursor 0 for 50 µs, transfer starts at 50.
        assert!(doc.contains("\"ts\":0.0,\"dur\":50.0"), "{doc}");
        assert!(doc.contains("\"ts\":50.0,\"dur\":11.0"), "{doc}");
    }

    #[test]
    fn sync_and_reduction_records_render_in_the_device_lane() {
        let doc = chrome_trace(&sample());
        assert!(doc.contains("bicgstab #0: 54 syncs"), "{doc}");
        assert!(doc.contains("bicgstab #0: 54 reductions"), "{doc}");
        assert!(doc.contains("\"syncs_per_iteration\":6.0"), "{doc}");
        assert!(doc.contains("\"depth\":16"), "{doc}");
    }

    #[test]
    fn incidents_become_instants() {
        let doc = chrome_trace(&sample());
        assert!(
            doc.contains("\"name\":\"watchdog stall\",\"ph\":\"i\""),
            "{doc}"
        );
    }

    fn launch(shard: u32, seq: u64, exec_us: f64) -> TraceEvent {
        TraceEvent {
            t_us: seq,
            trace_id: None,
            kind: EventKind::KernelLaunch {
                shard,
                seq,
                solver: "bicgstab",
                device: "V100",
                blocks: 1,
                resident_per_cu: 2,
                total_slots: 160,
                shared_per_block_bytes: 1024,
                spilled_vector_bytes: 0,
                launch_us: 10.0,
                exec_us,
                dram_bytes: 4096,
                flops: 1 << 16,
                syncs: 0,
                reductions: 0,
                sync_us: 0.0,
                syncs_per_iteration: 6.0,
            },
        }
    }

    #[test]
    fn each_shard_gets_its_own_lane_and_cursor() {
        // Interleaved launches on shards 0 and 2: each lane's cursor
        // starts at 0 and advances independently of the other's.
        let doc = chrome_trace(&[launch(0, 0, 40.0), launch(2, 1, 90.0), launch(0, 2, 40.0)]);
        // Shard 0 lane (tid 1): spans at 0 and 50.
        assert!(doc.contains("\"tid\":1,\"ts\":0.0,\"dur\":50.0"), "{doc}");
        assert!(doc.contains("\"tid\":1,\"ts\":50.0,\"dur\":50.0"), "{doc}");
        // Shard 2 lane (tid 5): its own cursor, starting at 0.
        assert!(doc.contains("\"tid\":5,\"ts\":0.0,\"dur\":100.0"), "{doc}");
        // Both lanes are named.
        assert!(doc.contains("device 0 kernels"), "{doc}");
        assert!(doc.contains("device 2 kernels"), "{doc}");
        validate_json(&doc).unwrap();
    }

    #[test]
    fn fleet_scheduler_events_become_service_instants() {
        let events = vec![
            TraceEvent {
                t_us: 5,
                trace_id: None,
                kind: EventKind::ShardDispatch {
                    shard: 3,
                    device: "NVIDIA V100-16GB",
                    size: 96,
                    queue_depth: 1,
                },
            },
            TraceEvent {
                t_us: 6,
                trace_id: None,
                kind: EventKind::ShardSteal {
                    thief: 1,
                    victim: 3,
                    size: 96,
                },
            },
            TraceEvent {
                t_us: 7,
                trace_id: None,
                kind: EventKind::CpuSpill {
                    size: 5,
                    min_batch_size: 8,
                },
            },
        ];
        let doc = chrome_trace(&events);
        assert!(doc.contains("dispatch -> shard 3 (96 systems)"), "{doc}");
        assert!(
            doc.contains("steal: shard 1 <- shard 3 (96 systems)"),
            "{doc}"
        );
        assert!(doc.contains("spill -> cpu pool (5 < 8)"), "{doc}");
        validate_json(&doc).unwrap();
    }

    #[test]
    fn retries_emit_flow_arrows_spanning_the_backoff() {
        let events = vec![TraceEvent {
            t_us: 100,
            trace_id: None,
            kind: EventKind::RetryAttempt {
                from: 0,
                to: 2,
                size: 8,
                attempt: 2,
                backoff_us: 1500,
                reason: "device_failure",
            },
        }];
        let doc = chrome_trace(&events);
        assert!(doc.contains("\"ph\":\"s\",\"id\":1"), "{doc}");
        assert!(doc.contains("\"ph\":\"f\",\"id\":1"), "{doc}");
        // Finish edge lands after the deterministic backoff sleep.
        assert!(doc.contains("\"ts\":1600.0,\"bp\":\"e\""), "{doc}");
        validate_json(&doc).unwrap();
    }

    #[test]
    fn hedge_flows_close_on_the_winning_shard() {
        let events = vec![
            TraceEvent {
                t_us: 10,
                trace_id: None,
                kind: EventKind::HedgeFired {
                    primary: 0,
                    hedge: 1,
                    size: 16,
                    age_us: 40_000,
                },
            },
            TraceEvent {
                t_us: 90,
                trace_id: None,
                kind: EventKind::HedgeWon {
                    winner: 1,
                    loser: 0,
                    size: 16,
                },
            },
        ];
        let doc = chrome_trace(&events);
        assert!(
            doc.contains("\"name\":\"hedge: 0 -> 1\",\"ph\":\"s\",\"id\":1"),
            "{doc}"
        );
        assert!(
            doc.contains("\"name\":\"hedge won: 1\",\"ph\":\"f\",\"id\":1"),
            "{doc}"
        );
        validate_json(&doc).unwrap();
        // A hedge that never wins leaves no dangling finish edge.
        let unclosed = chrome_trace(&events[..1]);
        assert!(!unclosed.contains("\"ph\":\"f\""), "{unclosed}");
    }
}
