//! One fleet shard: a bounded chunk queue and a worker thread. The
//! shard's engine, breaker and stats registry live in its runtime
//! [`Worker`], and every chunk it takes runs through the one executor,
//! [`Worker::execute`], which sheds spent deadlines, retries a failed
//! chunk on a peer as the `RetryPolicy` allows (or re-runs its members
//! one at a time so only the guilty one fails), and advertises each
//! primary flight for hedging. This module is the fleet's front end:
//!
//! * **stealing** — when its own queue stays empty past a poll
//!   interval, a worker walks its fixed, seeded victim order and takes
//!   the *oldest* queued chunk from the first victim with a backlog, the
//!   one with the worst wait so far. A steal is one atomic queue pop, so
//!   a chunk executes exactly once however thief, victim and breaker
//!   interleave;
//! * **hedging** — an idle worker that finds nothing to steal duplicates
//!   a peer's in-flight chunk once its age exceeds the peer's
//!   p99-derived hedge delay. Primary and hedge share reply slots, so the
//!   first terminal outcome wins and outcomes stay exactly-once;
//! * **retry placement** — a retried chunk goes to the next healthy peer.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use batsolv_runtime::{BoundedQueue, Chunk, PopResult, PushResult, Role, Tally, Worker};
use batsolv_trace::EventKind;

/// How long a worker waits on its empty queue before probing victims.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// Everything a shard shares with the scheduler and with thieving
/// peers: its queue and its worker (engine, breaker, stats, and the
/// flight it advertises for hedging).
pub(crate) struct ShardShared {
    pub device_name: &'static str,
    pub queue: BoundedQueue<Chunk>,
    pub worker: Worker,
}

/// One worker thread's front end: its shard, its peers (for steals,
/// retries, and hedges), and its fixed victim-visit order (empty
/// disables stealing).
pub(crate) struct ShardCtx {
    pub shard: Arc<ShardShared>,
    pub peers: Arc<Vec<Arc<ShardShared>>>,
    pub victims: Vec<u32>,
}

/// Spawn one shard's worker loop.
pub(crate) fn spawn_shard_worker(ctx: ShardCtx) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("fleet-shard-{}", ctx.shard.worker.id))
        .spawn(move || loop {
            match ctx.shard.queue.pop_wait(POLL_INTERVAL) {
                PopResult::Item(chunk) => execute(&ctx, chunk, Role::Primary),
                PopResult::Closed => break,
                PopResult::TimedOut => {
                    // Raid greedily while idle: once a steal succeeds,
                    // keep taking chunks (re-checking our own queue
                    // between them) instead of paying the poll interval
                    // per stolen chunk.
                    let mut raided = false;
                    while ctx.shard.queue.is_empty() && steal(&ctx) {
                        raided = true;
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

/// Run one chunk through the shard's executor; a retry goes to a peer.
fn execute(ctx: &ShardCtx, mut chunk: Chunk, role: Role) {
    ctx.shard
        .worker
        .execute(&mut chunk, role, &|retried| requeue(ctx, retried));
}

/// Take the oldest chunk of the first victim with a backlog and run
/// it; true iff a steal happened.
fn steal(ctx: &ShardCtx) -> bool {
    for &v in &ctx.victims {
        let victim = &ctx.peers[v as usize];
        if let PopResult::Item(chunk) = victim.queue.pop_wait(Duration::ZERO) {
            victim.worker.stats.add(Tally::StealOut, 1);
            ctx.shard.worker.stats.add(Tally::StealIn, 1);
            ctx.shard.worker.tracer.emit(
                None,
                EventKind::ShardSteal {
                    thief: ctx.shard.worker.id,
                    victim: chunk.origin,
                    size: chunk.items.len(),
                },
            );
            execute(ctx, chunk, Role::Primary);
            return true;
        }
    }
    false
}

/// Queue a retried chunk on the next healthy peer. The other shards
/// come first (self only as a last resort, when the fleet has a single
/// GPU shard): a fault that hit this device should not greet the retry
/// too. Every queue full or breaker open hands the chunk back.
fn requeue(ctx: &ShardCtx, mut chunk: Chunk) -> Result<u32, Chunk> {
    let devices = ctx.peers.len();
    for k in 1..=devices {
        let target = &ctx.peers[(ctx.shard.worker.id as usize + k) % devices];
        if target.worker.admits(Instant::now()).is_err() {
            continue;
        }
        chunk.origin = target.worker.id;
        match target.queue.try_push(chunk) {
            PushResult::Ok => return Ok(target.worker.id),
            PushResult::Full(back) | PushResult::Closed(back) => chunk = back,
        }
    }
    Err(chunk)
}

/// Idle-path hedging: scan peers for a flight older than its hedge
/// delay — the larger of the configured floor and `p99_factor` times
/// the peer's observed p99 latency — claim it (one hedge per flight),
/// and execute the duplicate.
fn try_hedge(ctx: &ShardCtx) {
    let worker = &ctx.shard.worker;
    if !worker.hedge.enabled {
        return;
    }
    for peer in ctx.peers.iter().filter(|p| p.worker.id != worker.id) {
        let Some(infl) = peer.worker.flight() else {
            continue;
        };
        let age = infl.started.elapsed();
        let p99 = peer
            .worker
            .stats
            .latency_p99()
            .mul_f64(worker.hedge.p99_factor);
        if age < worker.hedge.min_delay.max(p99) {
            continue;
        }
        if infl.hedged.swap(true, Ordering::AcqRel) {
            continue; // someone else already duplicated this flight
        }
        let hedge = infl.chunk.unclaimed();
        if hedge.items.is_empty() {
            continue;
        }
        worker.stats.add(Tally::HedgeFired, 1);
        worker.tracer.emit(
            None,
            EventKind::HedgeFired {
                primary: infl.executor,
                hedge: worker.id,
                size: hedge.items.len(),
                age_us: age.as_micros() as u64,
            },
        );
        let primary = infl.executor;
        execute(ctx, hedge, Role::Hedge { primary });
        return;
    }
}
