//! One fleet shard: a bounded chunk queue, a worker thread driving an
//! escalation-ladder engine on the shard's own simulated device, a
//! per-shard circuit breaker, and per-shard stats.
//!
//! The worker's steal protocol: when its own queue stays empty past a
//! poll interval, it walks its fixed, seeded victim order and takes the
//! *oldest* queued chunk from the first victim with a backlog — the
//! chunk with the worst wait so far, which is what shortens the fleet's
//! tail. A steal is one atomic queue pop, so a chunk executes exactly
//! once no matter how thief, victim, and breaker interleave.
//!
//! Robustness layers on top of that base loop:
//!
//! * **Deadline budgets** — each pending system may carry a
//!   [`DeadlineBudget`](batsolv_runtime::DeadlineBudget); the worker
//!   debits queue wait at dispatch and sheds systems whose budget is
//!   spent.
//! * **Retry with backoff** — a retryable chunk failure (device fault,
//!   worker panic) re-queues the chunk on a *different* shard after a
//!   deterministic, seeded backoff, until `RetryPolicy::max_attempts`
//!   executions are spent; backoff time is debited from budgets.
//! * **Hedged dispatch** — an idle worker that finds nothing to steal
//!   duplicates a peer's in-flight chunk once its age exceeds the
//!   peer's p99-derived hedge delay. Primary and hedge share
//!   [`OutcomeSlot`](batsolv_runtime::OutcomeSlot)s, so the first
//!   terminal outcome wins and the loser's delivery is a no-op: outcomes
//!   stay exactly-once.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use batsolv_runtime::{
    feed_breaker, panic_detail, settle, BatchItem, BoundedQueue, CircuitBreaker, ClassTracker,
    Lifecycle, Pending, Phase, PopResult, PushResult, Reservoir, Settled, SolveEngine, SolveError,
};
use batsolv_trace::{EventKind, Tracer};
use batsolv_types::Error;

use crate::config::{HedgeConfig, RetryPolicy};
use crate::stats::percentile;
use crate::work::{Chunk, GroupProgress};

/// How long a worker waits on its empty queue before probing victims.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

#[derive(Default)]
pub(crate) struct SampledShardStats {
    pub wait_us: Reservoir,
    pub latency_us: Reservoir,
}

/// Per-shard counters; lock-free on the hot path, reservoirs for
/// percentile estimates.
pub(crate) struct ShardStats {
    pub chunks_executed: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub steals_in: AtomicU64,
    pub steals_out: AtomicU64,
    pub breaker_trips: AtomicU64,
    /// Chunks this shard re-queued elsewhere after a retryable failure.
    pub retries: AtomicU64,
    /// Hedge duplicates this shard launched against a peer's chunk.
    pub hedges_fired: AtomicU64,
    /// Hedge duplicates this shard won (delivered at least one outcome).
    pub hedges_won: AtomicU64,
    /// Systems shed at dispatch because their budget was spent.
    pub shed: AtomicU64,
    /// Simulated device time, nanoseconds (atomics hold no f64).
    pub sim_time_ns: AtomicU64,
    pub sampled: Mutex<SampledShardStats>,
}

impl ShardStats {
    pub fn new() -> ShardStats {
        ShardStats {
            chunks_executed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            steals_in: AtomicU64::new(0),
            steals_out: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            hedges_fired: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            sim_time_ns: AtomicU64::new(0),
            sampled: Mutex::new(SampledShardStats::default()),
        }
    }

    fn add_sim_time(&self, seconds: f64) {
        let ns = (seconds * 1e9).max(0.0) as u64;
        self.sim_time_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// A chunk currently inside `solve_batch` on some shard, advertised so
/// idle peers can hedge it. `hedged` is the claim bit: only one peer
/// ever duplicates a given flight.
pub(crate) struct InflightChunk {
    pub started: Instant,
    /// The shard actually executing (differs from the chunk's `origin`
    /// on steals).
    pub executor: u32,
    pub hedged: AtomicBool,
    /// Payload clones sharing the primaries' outcome slots.
    pub chunk: Chunk,
}

/// Everything a shard shares with the scheduler and with thieving
/// peers: its queue, breaker, stats, and identity.
pub(crate) struct ShardShared {
    pub id: u32,
    pub device_name: &'static str,
    pub queue: BoundedQueue<Chunk>,
    pub stats: ShardStats,
    pub breaker: CircuitBreaker,
    /// The chunk this shard's worker has in flight, if hedging is on.
    pub inflight: Mutex<Option<Arc<InflightChunk>>>,
}

/// Whether an execution is the scheduled flight or a hedge duplicate.
#[derive(Clone, Copy)]
pub(crate) enum ChunkRole {
    Primary,
    /// A duplicate of a chunk in flight on shard `primary`.
    Hedge {
        primary: u32,
    },
}

/// Everything one worker thread needs: its shard, its peers (for
/// steals, retries, and hedges), the engine, and the shared policies.
pub(crate) struct WorkerCtx {
    pub shard: Arc<ShardShared>,
    pub peers: Arc<Vec<Arc<ShardShared>>>,
    pub engine: Arc<dyn SolveEngine>,
    /// Fixed victim-visit order (empty disables stealing).
    pub victims: Vec<u32>,
    pub tracer: Tracer,
    pub retry: RetryPolicy,
    pub hedge: HedgeConfig,
    /// Fleet-wide per-class latency/SLO tracker; every winning delivery
    /// feeds its phase ledger through here.
    pub classes: Arc<ClassTracker>,
    /// Where this pool's dispatch wall time lands in the ledger:
    /// `Solve` on GPU shards, `Spill` on the CPU pool.
    pub exec_phase: Phase,
}

/// Spawn one shard's worker loop.
pub(crate) fn spawn_shard_worker(ctx: WorkerCtx) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("fleet-shard-{}", ctx.shard.id))
        .spawn(move || loop {
            match ctx.shard.queue.pop_wait(POLL_INTERVAL) {
                PopResult::Item(chunk) => {
                    execute_chunk(&ctx, chunk, ChunkRole::Primary);
                }
                PopResult::Closed => break,
                PopResult::TimedOut => {
                    // Raid greedily while idle: once a steal succeeds,
                    // keep taking chunks (re-checking our own queue
                    // between them) instead of paying the poll interval
                    // per stolen chunk.
                    let mut raided = false;
                    while ctx.shard.queue.is_empty() {
                        let mut stole = false;
                        for &v in &ctx.victims {
                            let victim = &ctx.peers[v as usize];
                            if let PopResult::Item(chunk) = victim.queue.pop_wait(Duration::ZERO) {
                                victim.stats.steals_out.fetch_add(1, Ordering::Relaxed);
                                ctx.shard.stats.steals_in.fetch_add(1, Ordering::Relaxed);
                                ctx.tracer.emit(
                                    None,
                                    EventKind::ShardSteal {
                                        thief: ctx.shard.id,
                                        victim: chunk.origin,
                                        size: chunk.len(),
                                    },
                                );
                                execute_chunk(&ctx, chunk, ChunkRole::Primary);
                                stole = true;
                                raided = true;
                                break;
                            }
                        }
                        if !stole {
                            break;
                        }
                    }
                    // Nothing queued anywhere: consider hedging a
                    // straggling peer flight before going back to sleep.
                    if !raided {
                        try_hedge(&ctx);
                    }
                }
            }
        })
        .expect("spawn fleet shard worker")
}

/// Execute one chunk on this worker's engine. Terminal outcomes go
/// through each item's [`Lifecycle::deliver`], so no path — success,
/// shed, engine error, retry exhaustion, worker panic, lost hedge race —
/// ever delivers twice or drops an item.
pub(crate) fn execute_chunk(ctx: &WorkerCtx, chunk: Chunk, role: ChunkRole) {
    let shard = &ctx.shard;
    let dispatch_start = Instant::now();
    let is_primary = matches!(role, ChunkRole::Primary);
    let register_hedge = is_primary && ctx.hedge.enabled;
    // This hop's wait lands in its phase: first-hop primary dispatch is
    // queueing, a retry re-queue is a transit hop, and a hedge duplicate
    // charges its whole enqueue → dispatch span (queue plus the
    // primary's partial flight) to the hedge phase.
    let hop = match role {
        ChunkRole::Primary if chunk.attempt == 1 => Phase::Queue,
        ChunkRole::Primary => Phase::Transit,
        ChunkRole::Hedge { .. } => Phase::Hedge,
    };
    let Chunk {
        items: pendings,
        origin,
        attempt,
        group,
    } = chunk;

    let mut items: Vec<BatchItem> = Vec::with_capacity(pendings.len());
    let mut lives: Vec<Lifecycle> = Vec::with_capacity(pendings.len());
    let mut waits: Vec<Duration> = Vec::with_capacity(pendings.len());
    let mut hedge_clones: Vec<Pending> = Vec::new();
    let mut shed = 0usize;

    for mut p in pendings {
        if p.life.slot.is_claimed() {
            // The other side of a hedge pair already delivered this
            // one; executing it again would be pure waste.
            continue;
        }
        // Clone for the hedge advertisement *before* booking this hop's
        // wait: the duplicate books its own enqueue → hedge dispatch
        // span, so booking the primary's queue wait here would count
        // the interval twice.
        if register_hedge {
            hedge_clones.push(p.clone());
        }
        let wait = p.life.clock.lap(hop, dispatch_start);
        if let Some(budget) = p.life.budget.as_mut().filter(|_| is_primary) {
            budget.debit(wait);
            if budget.is_exhausted() {
                let error = SolveError::DeadlineExceeded {
                    waited: budget.consumed(),
                    deadline: budget.total(),
                };
                let shed_one = || {
                    shard.stats.failed.fetch_add(1, Ordering::Relaxed);
                    shard.stats.shed.fetch_add(1, Ordering::Relaxed);
                    Settled::failure("deadline_exceeded", group.finish_one())
                };
                let (id, life) = (p.item.id, &p.life);
                if life.deliver(id, &ctx.tracer, &ctx.classes, Err(error), shed_one) {
                    shed += 1;
                }
                continue;
            }
        }
        items.push(p.item);
        lives.push(p.life);
        waits.push(wait);
    }
    if shed > 0 {
        ctx.tracer.emit(
            None,
            EventKind::Shed {
                shard: shard.id,
                size: shed,
            },
        );
    }
    let n = items.len();
    if n == 0 {
        return;
    }

    // Advertise the flight for hedging *before* the (possibly
    // stalling) solve, and retract it after.
    if register_hedge {
        let infl = Arc::new(InflightChunk {
            started: dispatch_start,
            executor: shard.id,
            hedged: AtomicBool::new(false),
            chunk: Chunk {
                items: hedge_clones,
                origin,
                attempt,
                group: Arc::clone(&group),
            },
        });
        *shard.inflight.lock().unwrap() = Some(infl);
    }

    let result = catch_unwind(AssertUnwindSafe(|| ctx.engine.solve_batch(&items)));
    shard.stats.chunks_executed.fetch_add(1, Ordering::Relaxed);
    if register_hedge {
        *shard.inflight.lock().unwrap() = None;
    }

    // Feed the breaker *before* outcomes go out: a caller unblocked by a
    // delivery must observe the trip on its very next submit. (The
    // breaker sees every execution's health — including a losing
    // hedge's — because it guards the device, not the outcome slots.)
    let degraded = match &result {
        Ok(Ok(report)) => report.outcomes.iter().filter(|o| o.is_degraded()).count(),
        _ => n,
    };
    if feed_breaker(&shard.breaker, &ctx.tracer, n, degraded) {
        shard.stats.breaker_trips.fetch_add(1, Ordering::Relaxed);
    }

    let error = match result {
        Ok(Ok(report)) => {
            shard.stats.add_sim_time(report.sim_time_s);
            let finished = Instant::now();
            let sim = report.split.per_item(n);
            let mut delivered = 0usize;
            for ((o, mut life), wait) in report.outcomes.into_iter().zip(lives).zip(waits) {
                life.clock.lap(ctx.exec_phase, finished);
                let id = o.id;
                let (settled, outcome) = settle(o, n, wait);
                let won = life.deliver(id, &ctx.tracer, &ctx.classes, outcome, || {
                    let counter = if settled.converged {
                        &shard.stats.completed
                    } else {
                        &shard.stats.failed
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                    // Only the slot winner samples: the reservoirs then
                    // reflect the latency callers actually observed.
                    let mut s = shard.stats.sampled.lock().unwrap();
                    s.wait_us.push(wait.as_micros() as u64);
                    s.latency_us
                        .push((wait + dispatch_start.elapsed()).as_micros() as u64);
                    Settled {
                        straggler: group.finish_one(),
                        sim: Some(sim),
                        ..settled
                    }
                });
                delivered += usize::from(won);
            }
            if let ChunkRole::Hedge { primary } = role {
                if delivered > 0 {
                    shard.stats.hedges_won.fetch_add(1, Ordering::Relaxed);
                    ctx.tracer.emit(
                        None,
                        EventKind::HedgeWon {
                            winner: shard.id,
                            loser: primary,
                            size: delivered,
                        },
                    );
                }
            }
            return;
        }
        // The engine failed the whole fused launch (e.g. a simulated
        // device fault): every member fails, none is lost.
        Ok(Err(Error::DeviceFailure { code })) => SolveError::DeviceFailure { code },
        Ok(Err(_)) => SolveError::DeviceFailure {
            code: "engine_error",
        },
        Err(panic) => SolveError::WorkerPanic {
            detail: panic_detail(&*panic),
        },
    };
    // A hedge duplicate never delivers failures and never retries: the
    // primary flight still owns these items, and hedging exists to beat
    // stragglers, not to double-report faults.
    if is_primary {
        let failed = Chunk {
            items: items
                .into_iter()
                .zip(lives)
                .map(|(item, life)| Pending { item, life })
                .collect(),
            origin,
            attempt,
            group,
        };
        finish_failed(ctx, failed, error);
    }
}

/// Deliver one terminal failure through the funnel, counted on this
/// shard.
fn fail(
    ctx: &WorkerCtx,
    group: &GroupProgress,
    p: &Pending,
    outcome: &'static str,
    error: SolveError,
) {
    p.life
        .deliver(p.item.id, &ctx.tracer, &ctx.classes, Err(error), || {
            ctx.shard.stats.failed.fetch_add(1, Ordering::Relaxed);
            Settled::failure(outcome, group.finish_one())
        });
}

/// Failure epilogue of a primary flight: retry the chunk elsewhere if
/// the policy allows, otherwise deliver the terminal error to every
/// still-unclaimed slot.
///
/// `SolveError::DeviceFailure` and `SolveError::WorkerPanic` are the
/// fleet's *retryable* class (mirroring `FailureClass` in
/// batsolv-faults): the fault hit the attempt, not the data, so a
/// different shard may well succeed. Data-level failures
/// (`NotConverged`) come through the success path above and are always
/// terminal.
fn finish_failed(ctx: &WorkerCtx, mut chunk: Chunk, error: SolveError) {
    let shard = &ctx.shard;
    let reason = match error {
        SolveError::WorkerPanic { .. } => "worker_panic",
        _ => "device_failure",
    };
    // The failed attempt's wall time lands in this pool's phase of
    // whatever terminal ledger follows.
    let failed_at = Instant::now();
    for p in &mut chunk.items {
        p.life.clock.lap(ctx.exec_phase, failed_at);
    }
    if chunk.attempt >= ctx.retry.max_attempts {
        for p in &chunk.items {
            fail(ctx, &chunk.group, p, reason, error.clone());
        }
        return;
    }

    // Deterministic backoff keyed by the chunk's lead request id.
    let next_attempt = chunk.attempt + 1;
    let lead_id = chunk.items.first().map(|p| p.item.id).unwrap_or(0);
    let backoff = ctx.retry.backoff(next_attempt, lead_id);
    // Debit the backoff we are about to sleep from every budget; systems
    // it would push past their deadline fail now instead of burning a
    // pointless attempt.
    chunk.items.retain_mut(|p| {
        if p.life.slot.is_claimed() {
            return false;
        }
        let Some(budget) = p.life.budget.as_mut() else {
            return true;
        };
        budget.debit(backoff);
        if !budget.is_exhausted() {
            return true;
        }
        let error = SolveError::DeadlineExceeded {
            waited: budget.consumed(),
            deadline: budget.total(),
        };
        fail(ctx, &chunk.group, p, "deadline_exceeded", error);
        false
    });
    if chunk.items.is_empty() {
        return;
    }
    std::thread::sleep(backoff);
    let slept = Instant::now();
    for p in &mut chunk.items {
        p.life.clock.lap(Phase::Backoff, slept);
    }
    chunk.attempt = next_attempt;

    // Walk the other shards first (self only as a last resort, when the
    // fleet has a single GPU shard): a fault that hit this device should
    // not greet the retry too.
    let devices = ctx.peers.len();
    for k in 1..=devices {
        let target = &ctx.peers[(shard.id as usize + k) % devices];
        if target.breaker.check(Instant::now()).is_err() {
            continue;
        }
        chunk.origin = target.id;
        let size = chunk.len();
        match target.queue.try_push(chunk) {
            PushResult::Ok => {
                shard.stats.retries.fetch_add(1, Ordering::Relaxed);
                ctx.tracer.emit(
                    None,
                    EventKind::RetryAttempt {
                        from: shard.id,
                        to: target.id,
                        size,
                        attempt: next_attempt,
                        backoff_us: backoff.as_micros() as u64,
                        reason,
                    },
                );
                return;
            }
            PushResult::Full(back) | PushResult::Closed(back) => chunk = back,
        }
    }
    // Every queue full or breaker open: terminal after all.
    for p in &chunk.items {
        fail(ctx, &chunk.group, p, reason, error.clone());
    }
}

/// The hedge delay for duplicating `victim`'s flight: the larger of
/// the configured floor and `p99_factor` times the victim's observed
/// p99 chunk latency (cold reservoirs fall back to the floor alone).
fn hedge_delay(ctx: &WorkerCtx, victim: &ShardShared) -> Duration {
    let p99 = {
        let s = victim.stats.sampled.lock().unwrap();
        let mut samples: Vec<u64> = s.latency_us.samples().to_vec();
        samples.sort_unstable();
        percentile(&samples, 0.99)
    };
    ctx.hedge.min_delay.max(p99.mul_f64(ctx.hedge.p99_factor))
}

/// Idle-path hedging: scan peers for a flight older than its hedge
/// delay, claim it (one hedge per flight), and execute the duplicate.
/// Returns true if a hedge ran.
fn try_hedge(ctx: &WorkerCtx) -> bool {
    if !ctx.hedge.enabled {
        return false;
    }
    for peer in ctx.peers.iter() {
        if peer.id == ctx.shard.id {
            continue;
        }
        let infl = match peer.inflight.lock().unwrap().clone() {
            Some(i) => i,
            None => continue,
        };
        let age = infl.started.elapsed();
        if age < hedge_delay(ctx, peer) {
            continue;
        }
        if infl.hedged.swap(true, Ordering::AcqRel) {
            continue; // someone else already duplicated this flight
        }
        let items: Vec<Pending> = infl
            .chunk
            .items
            .iter()
            .filter(|p| !p.life.slot.is_claimed())
            .cloned()
            .collect();
        if items.is_empty() {
            continue;
        }
        let size = items.len();
        ctx.shard.stats.hedges_fired.fetch_add(1, Ordering::Relaxed);
        ctx.tracer.emit(
            None,
            EventKind::HedgeFired {
                primary: infl.executor,
                hedge: ctx.shard.id,
                size,
                age_us: age.as_micros() as u64,
            },
        );
        execute_chunk(
            ctx,
            Chunk {
                items,
                origin: infl.chunk.origin,
                attempt: infl.chunk.attempt,
                group: Arc::clone(&infl.chunk.group),
            },
            ChunkRole::Hedge {
                primary: infl.executor,
            },
        );
        return true;
    }
    false
}
