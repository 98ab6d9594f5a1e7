//! [`FleetService`]: sharded multi-device serving with size-aware
//! dispatch, work stealing, and CPU spill.
//!
//! One service owns `devices` GPU shards — each a simulated device, a
//! bounded chunk queue, a worker thread, a circuit breaker, and stats —
//! plus the CPU banded-LU spill pool. Groups submitted through
//! [`FleetService::submit_group`] are routed by the [`DeviceRange`]
//! policy and placed *atomically*: a submit lock serializes placement
//! planning, and workers only ever drain queues, so a group either
//! lands whole or is rejected whole (no half-dispatched groups whose
//! orphaned members never resolve).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use batsolv_formats::SparsityPattern;
use batsolv_gpusim::{LaunchHook, NoDisruption};
use batsolv_runtime::{
    BoundedQueue, Chunk, CircuitBreaker, ClassTracker, ClassesSnapshot, GroupProgress, HedgeConfig,
    LadderEngine, Pending, Phase, PushResult, RequestId, SolveEngine, SolveError, SolveOutcome,
    SolveRequest, StragglerRule, SubmitError, Worker,
};
use batsolv_trace::{EventKind, Tracer};
use batsolv_types::Result;

use crate::config::FleetConfig;
use crate::metrics::fleet_prometheus_text;
use crate::range::{victim_order, DeviceRange, Route};
use crate::shard::{spawn_shard_worker, ShardCtx, ShardShared};
use crate::spill::pool_engine;
use crate::stats::{percentile, snapshot_shard, FleetSnapshot};

/// Iteration count assumed by admission-time cost prediction: the
/// paper's Table III electron-species solves land near 40 iterations,
/// which makes the predicted chunk cost a realistic (not worst-case)
/// feasibility bar for deadline budgets.
const PREDICT_ITERS: u32 = 40;

/// A running fleet: GPU shards plus the CPU spill pool.
pub struct FleetService {
    range: DeviceRange,
    shards: Arc<Vec<Arc<ShardShared>>>,
    cpu: Arc<ShardShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Serializes placement planning against concurrent submitters and
    /// shutdown, making group placement all-or-nothing.
    submit_lock: Mutex<()>,
    shutting_down: AtomicBool,
    next_id: AtomicU64,
    round_robin: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    gpu_chunks: AtomicU64,
    spilled: AtomicU64,
    queue_capacity: usize,
    nnz: usize,
    n: usize,
    /// Device-model prediction for one full chunk, the admission
    /// feasibility bar for deadline-carrying requests.
    predicted_chunk_cost: Duration,
    tracer: Tracer,
    /// Fleet-wide per-class latency/SLO tracker, fed by every winning
    /// delivery's phase ledger.
    classes: Arc<ClassTracker>,
}

impl FleetService {
    /// Start a fleet over `pattern` with the given knobs.
    pub fn start(pattern: Arc<SparsityPattern>, cfg: FleetConfig) -> Result<FleetService> {
        let hooks = vec![Arc::new(NoDisruption) as Arc<dyn LaunchHook>; cfg.devices];
        FleetService::start_with_hooks(pattern, cfg, hooks)
    }

    /// Start a fleet with a chaos [`LaunchHook`] per GPU shard
    /// (`hooks[i]` disrupts shard `i`) — the seam the deterministic
    /// fault-injection tests drive.
    pub fn start_with_hooks(
        pattern: Arc<SparsityPattern>,
        cfg: FleetConfig,
        hooks: Vec<Arc<dyn LaunchHook>>,
    ) -> Result<FleetService> {
        cfg.validate()?;
        assert_eq!(hooks.len(), cfg.devices, "one hook per GPU shard");
        let range = DeviceRange::new(cfg.devices, cfg.min_batch_size, cfg.max_batch_size);
        let classes = Arc::new(ClassTracker::new());
        let spec = cfg.profile.spec();
        let predicted_chunk_cost = Duration::from_secs_f64(spec.predict_chunk_seconds(
            pattern.num_rows(),
            pattern.nnz(),
            cfg.max_batch_size,
            PREDICT_ITERS,
        ));

        // Every shard and the CPU pool is a runtime worker with the
        // fleet's breaker, retry and hedge policies.
        let new_shard =
            |id: u32, device_name: &'static str, engine: Arc<dyn SolveEngine>| ShardShared {
                device_name,
                queue: BoundedQueue::new(cfg.queue_capacity),
                worker: Worker {
                    breaker: Some(CircuitBreaker::new(cfg.breaker)),
                    retry: cfg.retry,
                    hedge: cfg.hedge,
                    ..Worker::new(id, engine, cfg.tracer.clone(), Arc::clone(&classes))
                },
            };
        let shards: Arc<Vec<Arc<ShardShared>>> = Arc::new(
            (0..cfg.devices as u32)
                .map(|id| {
                    let engine = LadderEngine::with_hook(
                        spec.clone(),
                        Arc::clone(&pattern),
                        cfg.ladder,
                        Arc::clone(&hooks[id as usize]),
                    )
                    .with_tracer(cfg.tracer.clone())
                    .with_shard(id);
                    Arc::new(new_shard(id, spec.name, Arc::new(engine)))
                })
                .collect(),
        );
        // The CPU pool is one more worker over the same executor and the
        // same ladder, priced on the Skylake node where it is banded LU
        // alone: its wall time booked as spill, and it never steals (GPU
        // backlogs would defeat the size cutoff that routed work away
        // from it) and never hedges (its chunks are the small spill tail,
        // not fused straggler candidates).
        let cpu_engine = pool_engine(Arc::clone(&pattern), &cfg, range.cpu_shard());
        let skylake = cpu_engine.device().name;
        let mut cpu = new_shard(range.cpu_shard(), skylake, Arc::new(cpu_engine));
        cpu.worker.exec_phase = Phase::Spill;
        cpu.worker.hedge = HedgeConfig::disabled();
        let cpu = Arc::new(cpu);

        let mut workers = Vec::with_capacity(cfg.devices + 1);
        for shard in shards.iter() {
            let victims = if cfg.steal {
                victim_order(cfg.devices, shard.worker.id, cfg.steal_seed)
            } else {
                Vec::new()
            };
            workers.push(spawn_shard_worker(ShardCtx {
                shard: Arc::clone(shard),
                peers: Arc::clone(&shards),
                victims,
            }));
        }
        workers.push(spawn_shard_worker(ShardCtx {
            shard: Arc::clone(&cpu),
            peers: Arc::clone(&shards),
            victims: Vec::new(),
        }));

        Ok(FleetService {
            range,
            shards,
            cpu,
            workers: Mutex::new(workers),
            submit_lock: Mutex::new(()),
            shutting_down: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            round_robin: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            gpu_chunks: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
            queue_capacity: cfg.queue_capacity,
            nnz: pattern.nnz(),
            n: pattern.num_rows(),
            predicted_chunk_cost,
            tracer: cfg.tracer,
            classes,
        })
    }

    /// Number of GPU shards.
    pub fn num_devices(&self) -> usize {
        self.range.num_devices()
    }

    /// The dispatch policy in force.
    pub fn range(&self) -> &DeviceRange {
        &self.range
    }

    /// The first member that cannot join the fleet's batches: an empty
    /// group, an unreachable tolerance, or a vector of the wrong length.
    fn check_members(&self, requests: &[SolveRequest]) -> std::result::Result<(), SubmitError> {
        if requests.is_empty() {
            return Err(SubmitError::ShapeMismatch {
                field: "group",
                expected: 1,
                got: 0,
            });
        }
        for r in requests {
            r.check_tolerance()?;
            r.check_shape(self.nnz, self.n)?;
        }
        Ok(())
    }

    /// Count every system of a refused group in `rejected` and hand the
    /// refusal back.
    fn refuse(&self, group: usize, e: SubmitError) -> SubmitError {
        self.rejected.fetch_add(group as u64, Ordering::Relaxed);
        e
    }

    /// Submit a group of systems over the fleet's shared pattern.
    ///
    /// `hint` is an optional placement affinity (e.g. a mesh-partition
    /// id); absent one, groups round-robin across shards. The group is
    /// routed by [`DeviceRange::route_group`] and placed atomically:
    /// either every chunk is queued (`Ok`) or none is (`Err`). Chunks
    /// aimed at a breaker-open or full shard walk the range to the next
    /// healthy one; only when every GPU shard refuses does the submit
    /// fail with [`SubmitError::CircuitOpen`] (all breakers open) or
    /// [`SubmitError::QueueFull`]. A member with a malformed shape or an
    /// unreachable tolerance ([`SolveRequest::check_tolerance`]) refuses
    /// the whole group.
    pub fn submit_group(
        &self,
        requests: Vec<SolveRequest>,
        hint: Option<u32>,
    ) -> std::result::Result<GroupTicket, SubmitError> {
        // Phase-ledger anchor: everything between here and the first
        // queue push is the admission phase (validation, feasibility,
        // placement planning).
        let submit_started = Instant::now();
        self.check_members(&requests)
            .map_err(|e| self.refuse(requests.len(), e))?;

        let _placement = self.submit_lock.lock().unwrap();
        if self.shutting_down.load(Ordering::Relaxed) {
            return Err(SubmitError::ShuttingDown);
        }

        // Deadline feasibility: if the device model already prices one
        // chunk above a request's whole budget, queueing it would only
        // burn queue slots on work guaranteed to miss. Fast-fail the
        // group instead with a structured reject.
        for r in &requests {
            if let Some(deadline) = r.deadline {
                if self.predicted_chunk_cost > deadline {
                    let e = SubmitError::Infeasible {
                        predicted: self.predicted_chunk_cost,
                        budget: deadline,
                    };
                    return Err(self.refuse(requests.len(), e));
                }
            }
        }

        // Plan every chunk's destination before queueing anything.
        let turn = self.round_robin.fetch_add(1, Ordering::Relaxed);
        let first = self.range.pick_shard(hint, turn);
        let placements = self.range.route_group(requests.len(), first);
        let now = Instant::now();
        let devices = self.range.num_devices();
        let mut planned = vec![0usize; devices + 1]; // [devices] = CPU pool
        let mut targets: Vec<Route> = Vec::with_capacity(placements.len());
        for p in &placements {
            match p.route {
                Route::CpuPool => {
                    if self.cpu.queue.len() + planned[devices] >= self.queue_capacity {
                        let e = SubmitError::QueueFull {
                            capacity: self.queue_capacity,
                        };
                        return Err(self.refuse(requests.len(), e));
                    }
                    planned[devices] += 1;
                    targets.push(Route::CpuPool);
                }
                Route::Shard(s) => {
                    let mut chosen = None;
                    let mut open_retry: Option<Duration> = None;
                    let mut cur = s;
                    for _ in 0..devices {
                        let shard = &self.shards[cur as usize];
                        match shard.worker.admits(now) {
                            Err(retry) => {
                                open_retry =
                                    Some(open_retry.map_or(retry, |r: Duration| r.min(retry)));
                            }
                            Ok(()) => {
                                if shard.queue.len() + planned[cur as usize] < self.queue_capacity {
                                    chosen = Some(cur);
                                    break;
                                }
                            }
                        }
                        cur = self.range.next_shard(cur);
                    }
                    match chosen {
                        Some(c) => {
                            planned[c as usize] += 1;
                            targets.push(Route::Shard(c));
                        }
                        None => {
                            let e = match open_retry {
                                Some(retry_after) => SubmitError::CircuitOpen { retry_after },
                                None => SubmitError::QueueFull {
                                    capacity: self.queue_capacity,
                                },
                            };
                            return Err(self.refuse(requests.len(), e));
                        }
                    }
                }
            }
        }

        // Placement is feasible: mint ids, build the ticket, queue every
        // chunk. Pushes cannot fail now — capacity was planned under the
        // submit lock and workers only drain.
        let total = requests.len();
        let base = self.next_id.fetch_add(total as u64, Ordering::Relaxed);
        let enqueued = Instant::now();
        let group = Arc::new(GroupProgress::new(total));
        let mut ids = Vec::with_capacity(total);
        let mut rxs = Vec::with_capacity(total);
        let mut pendings = Vec::with_capacity(total);
        for (k, r) in requests.into_iter().enumerate() {
            let (p, rx) = Pending::accept(base + k as u64, r, submit_started, enqueued);
            // Before any push: a queued member may be delivered at once.
            let n = self.n;
            self.tracer
                .emit(Some(p.item.id), EventKind::Submitted { n });
            ids.push(p.item.id);
            rxs.push(rx);
            pendings.push(p);
        }

        let mut rest = pendings;
        for (p, target) in placements.iter().zip(targets) {
            let tail = rest.split_off(p.end - p.start);
            let items = rest;
            rest = tail;
            let size = items.len();
            let straggler = StragglerRule::LastOfGroup(Arc::clone(&group));
            let chunk = |origin| Chunk::new(items, origin, straggler);
            match target {
                Route::Shard(s) => {
                    let shard = &self.shards[s as usize];
                    let pushed = shard.queue.try_push(chunk(s));
                    assert!(
                        matches!(pushed, PushResult::Ok),
                        "planned GPU chunk placement cannot fail"
                    );
                    self.gpu_chunks.fetch_add(1, Ordering::Relaxed);
                    self.tracer.emit(
                        None,
                        EventKind::ShardDispatch {
                            shard: s,
                            device: shard.device_name,
                            size,
                            queue_depth: shard.queue.len(),
                        },
                    );
                }
                Route::CpuPool => {
                    let pushed = self.cpu.queue.try_push(chunk(self.cpu.worker.id));
                    assert!(
                        matches!(pushed, PushResult::Ok),
                        "planned CPU chunk placement cannot fail"
                    );
                    self.spilled.fetch_add(size as u64, Ordering::Relaxed);
                    self.tracer.emit(
                        None,
                        EventKind::CpuSpill {
                            size,
                            min_batch_size: self.range.min_batch_size,
                        },
                    );
                }
            }
        }
        debug_assert!(rest.is_empty());
        self.accepted.fetch_add(total as u64, Ordering::Relaxed);
        Ok(GroupTicket { ids, rxs })
    }

    /// Point-in-time fleet rollup: every shard, the CPU pool, merged
    /// percentiles, and scheduler counters.
    pub fn snapshot(&self) -> FleetSnapshot {
        let now = Instant::now();
        let mut wait_us = Vec::new();
        let mut latency_us = Vec::new();
        let shards: Vec<_> = self
            .shards
            .iter()
            .map(|s| snapshot_shard(s, now, &mut wait_us, &mut latency_us))
            .collect();
        let cpu_pool = snapshot_shard(&self.cpu, now, &mut wait_us, &mut latency_us);
        wait_us.sort_unstable();
        latency_us.sort_unstable();
        let makespan_s = shards
            .iter()
            .map(|s| s.sim_time_s)
            .chain(std::iter::once(cpu_pool.sim_time_s))
            .fold(0.0f64, f64::max);
        let sim_time_total_s =
            shards.iter().map(|s| s.sim_time_s).sum::<f64>() + cpu_pool.sim_time_s;
        FleetSnapshot {
            wait_p50: percentile(&wait_us, 0.50),
            wait_p99: percentile(&wait_us, 0.99),
            latency_p50: percentile(&latency_us, 0.50),
            latency_p99: percentile(&latency_us, 0.99),
            shards,
            cpu_pool,
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            gpu_chunks: self.gpu_chunks.load(Ordering::Relaxed),
            spilled: self.spilled.load(Ordering::Relaxed),
            makespan_s,
            sim_time_total_s,
            classes: self.classes.snapshot(),
        }
    }

    /// Point-in-time per-workload-class statistics.
    pub fn classes(&self) -> ClassesSnapshot {
        self.classes.snapshot()
    }

    /// Render the current snapshot as a Prometheus metrics page with
    /// per-device labels.
    pub fn prometheus_text(&self) -> String {
        fleet_prometheus_text(&self.snapshot())
    }

    /// Drain every queue, stop every worker, and return the final
    /// rollup. Queued work still executes: queues drain before closing.
    pub fn shutdown(self) -> FleetSnapshot {
        {
            let _placement = self.submit_lock.lock().unwrap();
            self.shutting_down.store(true, Ordering::Relaxed);
            for s in self.shards.iter() {
                s.queue.close();
            }
            self.cpu.queue.close();
        }
        let workers = std::mem::take(&mut *self.workers.lock().unwrap());
        for w in workers {
            let _ = w.join();
        }
        self.snapshot()
    }
}

/// Handle for one submitted group: redeem it for every member's
/// terminal outcome, in submission order.
#[derive(Debug)]
pub struct GroupTicket {
    pub(crate) ids: Vec<RequestId>,
    pub(crate) rxs: Vec<mpsc::Receiver<SolveOutcome>>,
}

impl GroupTicket {
    /// Request ids assigned to the group, in submission order.
    pub fn ids(&self) -> &[RequestId] {
        &self.ids
    }

    /// Systems in the group.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True for an empty group (never produced by a successful submit).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Block until every member reaches its terminal outcome.
    pub fn wait_all(self) -> Vec<SolveOutcome> {
        self.rxs
            .into_iter()
            .map(|rx| rx.recv().unwrap_or(Err(SolveError::ServiceShutdown)))
            .collect()
    }
}
