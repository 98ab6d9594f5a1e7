//! The one batch executor both serving cores run.
//!
//! A [`Worker`] owns an engine, its [`StatsRegistry`] and breaker, and
//! the phase rules and retry and hedge policies its front end fixes.
//! [`Worker::execute`] is the only code that runs a formed batch:
//! [`SolveService`](crate::SolveService)'s batch former runs each cut
//! chunk through it inline on the supervised worker thread (hop phase
//! `Linger`, [`StragglerRule::SlowestMember`]); every fleet shard and
//! the CPU spill pool run it behind placement, stealing and hedging (hop
//! phase `Queue`, [`StragglerRule::LastOfGroup`]).
//!
//! One execution books the hop, sheds a passed deadline, runs the engine
//! under `catch_unwind`, counts the launch, feeds the breaker, and
//! delivers through the lifecycle's terminal funnel. A failed launch is
//! retried on a peer as the policy allows (only fleet chunks get a second
//! attempt); one that ends a multi-member chunk for good re-runs the
//! members one at a time, so only the guilty member fails.

use std::any::Any;
use std::cmp::Reverse;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use batsolv_trace::{EventKind, Tracer};
use batsolv_types::Error;

use crate::breaker::CircuitBreaker;
use crate::classes::ClassTracker;
use crate::config::{HedgeConfig, RetryPolicy};
use crate::dispatcher::{BatchItem, BatchReport, SolveEngine};
use crate::lifecycle::{settle, Pending, Phase, Settled};
use crate::request::SolveError;
use crate::stats::{StatsRegistry, Tally};
use crate::watchdog::WatchState;

/// Group-completion tracker for straggler attribution: the winning
/// delivery that drops `remaining` to zero finished the group.
pub struct GroupProgress {
    total: usize,
    remaining: AtomicUsize,
}

impl GroupProgress {
    /// A group of `total` systems, none delivered yet.
    pub fn new(total: usize) -> GroupProgress {
        GroupProgress {
            total,
            remaining: AtomicUsize::new(total),
        }
    }

    /// Record one terminal delivery; true iff it completed a group of
    /// more than one system (the group's straggler).
    fn finish_one(&self) -> bool {
        self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 && self.total > 1
    }
}

/// Which winning delivery of a chunk its ledger flags as the straggler.
#[derive(Clone)]
pub enum StragglerRule {
    /// `SolveService`'s rule: a fused launch runs until its slowest
    /// member converges, so the member with the most iterations set its
    /// completion time (the first such member on ties, and only in a
    /// launch of more than one system).
    SlowestMember,
    /// The fleet's rule: the delivery that completes the group the
    /// chunk was placed from.
    LastOfGroup(Arc<GroupProgress>),
}

impl StragglerRule {
    /// Whether this winning delivery is the straggler; `slowest` says
    /// whether it is its launch's slowest member.
    fn flags(&self, slowest: bool) -> bool {
        match self {
            StragglerRule::SlowestMember => slowest,
            StragglerRule::LastOfGroup(group) => group.finish_one(),
        }
    }
}

/// A formed unit of execution: the pending systems of one batch (a
/// fleet chunk never mixes groups), tagged with the worker its front end
/// placed it on. A hedge duplicate is a chunk of cloned [`Pending`]s:
/// its own payloads, but each reply slot shared through its `Arc`, which
/// keeps outcomes exactly-once.
pub struct Chunk {
    /// The systems to solve together.
    pub items: Vec<Pending>,
    /// The worker the front end placed the chunk on; a thief executing
    /// a stolen chunk keeps it, so steals stay attributable.
    pub origin: u32,
    /// 1-based execution attempt; bumped when the retry policy re-routes
    /// the chunk after a retryable failure.
    pub attempt: u32,
    /// How the chunk's straggler is picked.
    pub straggler: StragglerRule,
}

impl Chunk {
    /// A first-attempt chunk placed on `origin`.
    pub fn new(items: Vec<Pending>, origin: u32, straggler: StragglerRule) -> Chunk {
        Chunk {
            items,
            origin,
            attempt: 1,
            straggler,
        }
    }

    /// Clones of the members no executor has delivered yet, sharing
    /// their reply slots: a hedge duplicate's payload.
    pub fn unclaimed(&self) -> Chunk {
        let items = self.items.iter().filter(|p| !p.life.slot.is_claimed());
        Chunk {
            items: items.cloned().collect(),
            origin: self.origin,
            attempt: self.attempt,
            straggler: self.straggler.clone(),
        }
    }
}

/// Whether an execution is the scheduled flight or a hedge duplicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The chunk's own flight.
    Primary,
    /// A duplicate of a chunk in flight on worker `primary`.
    Hedge {
        /// The worker running the primary flight.
        primary: u32,
    },
}

/// A chunk inside its engine call, advertised so idle peers can hedge
/// it. `hedged` is the claim bit: only one peer ever duplicates a given
/// flight.
pub struct Inflight {
    /// When the flight was dispatched.
    pub started: Instant,
    /// The worker executing it (differs from the chunk's `origin` on
    /// steals).
    pub executor: u32,
    /// Set by the one peer that duplicates the flight.
    pub hedged: AtomicBool,
    /// Payload clones sharing the primaries' reply slots.
    pub chunk: Chunk,
}

/// Where a retried chunk goes next: the front end queues it on a peer
/// and returns the peer's id, or hands the chunk back.
pub type Requeue<'a> = &'a dyn Fn(Chunk) -> Result<u32, Chunk>;

/// One executing worker. Its front end fixes the phase rules and the
/// retry and hedge policies; the rest is what every execution books,
/// counts and feeds.
pub struct Worker {
    /// Worker id: the fleet shard id; 0 for `SolveService`.
    pub id: u32,
    /// The engine every launch runs on.
    pub engine: Arc<dyn SolveEngine>,
    /// Counts this worker's launches and winning deliveries.
    pub stats: StatsRegistry,
    /// Guards the engine's device; `None` runs without one.
    pub breaker: Option<CircuitBreaker>,
    /// Stamped around every engine call for the watchdog, if any.
    pub watch: Option<Arc<WatchState>>,
    /// Where every execution event goes.
    pub tracer: Tracer,
    /// Per-class latency/SLO tracker fed by every winning delivery.
    pub classes: Arc<ClassTracker>,
    /// The phase a first-attempt primary's wait up to dispatch lands in.
    pub hop: Phase,
    /// The phase a launch's wall time lands in: `Solve` on GPU engines,
    /// `Spill` on the CPU pool.
    pub exec_phase: Phase,
    /// How often a failed chunk is retried on a peer.
    pub retry: RetryPolicy,
    /// Whether primary flights are advertised for hedging.
    pub hedge: HedgeConfig,
    /// The advertised flight, while one runs and hedging is on.
    pub inflight: Mutex<Option<Arc<Inflight>>>,
}

impl Worker {
    /// A worker with no breaker, watchdog, retries or hedging, booking
    /// `Queue` then `Solve`; front ends override what they fix.
    pub fn new(
        id: u32,
        engine: Arc<dyn SolveEngine>,
        tracer: Tracer,
        classes: Arc<ClassTracker>,
    ) -> Worker {
        Worker {
            id,
            engine,
            stats: StatsRegistry::new(),
            breaker: None,
            watch: None,
            tracer,
            classes,
            hop: Phase::Queue,
            exec_phase: Phase::Solve,
            retry: RetryPolicy::disabled(),
            hedge: HedgeConfig::disabled(),
            inflight: Mutex::new(None),
        }
    }

    /// The flight advertised for hedging right now, if any.
    pub fn flight(&self) -> Option<Arc<Inflight>> {
        self.inflight
            .lock()
            .expect("inflight lock poisoned")
            .clone()
    }

    /// Whether the breaker admits work now; `Err` carries the time
    /// until it may.
    pub fn admits(&self, now: Instant) -> Result<(), Duration> {
        self.breaker.as_ref().map_or(Ok(()), |b| b.check(now))
    }

    /// Run a formed chunk to a terminal outcome for every member, or
    /// hand it to `requeue` for a retry.
    ///
    /// The members stay in `chunk` until each is delivered, so a panic
    /// outside the engine call leaves every undelivered member where the
    /// front end can run it again; the reply slots keep delivery
    /// exactly-once.
    pub fn execute(&self, chunk: &mut Chunk, role: Role, requeue: Requeue<'_>) {
        let hop = match role {
            Role::Primary if chunk.attempt == 1 => self.hop,
            Role::Primary => Phase::Transit,
            Role::Hedge { .. } => Phase::Hedge,
        };
        // Advertise the flight before the (possibly stalling) solve and
        // retract it after. The clones are taken before the hop is
        // booked: a duplicate books its own enqueue → hedge span.
        let advertise = role == Role::Primary && self.hedge.enabled;
        if advertise {
            *self.inflight.lock().expect("inflight lock poisoned") = Some(Arc::new(Inflight {
                started: Instant::now(),
                executor: self.id,
                hedged: AtomicBool::new(false),
                chunk: chunk.unclaimed(),
            }));
        }
        let failed = self.launch(&mut chunk.items, Some(hop), role, &chunk.straggler);
        if advertise {
            *self.inflight.lock().expect("inflight lock poisoned") = None;
        }
        // A hedge duplicate never delivers failures and never retries:
        // the primary flight still owns its members.
        let Some(error) = failed.filter(|_| role == Role::Primary) else {
            return;
        };
        if chunk.attempt < self.retry.max_attempts && self.retry_elsewhere(chunk, &error, requeue) {
            return;
        }
        let unclaimed = chunk.items.iter().filter(|p| !p.life.slot.is_claimed());
        if unclaimed.count() > 1 {
            // Blame isolation: with a deterministic fault the guilty
            // member fails again alone, and every other one is solved.
            for one in chunk.items.chunks_mut(1) {
                if let Some(error) = self.launch(one, None, role, &chunk.straggler) {
                    self.fail_all(one, error, &chunk.straggler);
                }
            }
        } else {
            self.fail_all(&mut chunk.items, error, &chunk.straggler);
        }
    }

    /// One engine run over the unclaimed `members`: book `hop` (a
    /// primary flight sheds a spent deadline here), solve under
    /// `catch_unwind`, then count, feed the breaker and deliver. On a
    /// failed launch it counts and feeds the breaker and returns the
    /// error; the launched members keep unclaimed slots for the caller's
    /// failure rule. `hop` is `None` for an isolation singleton, whose
    /// wait the failed launch already booked.
    fn launch(
        &self,
        members: &mut [Pending],
        hop: Option<Phase>,
        role: Role,
        straggler: &StragglerRule,
    ) -> Option<SolveError> {
        let dispatched = Instant::now();
        let mut live = Vec::with_capacity(members.len());
        let mut shed = 0;
        for (i, p) in members.iter_mut().enumerate() {
            if p.life.slot.is_claimed() {
                // Already delivered (by the other side of a hedge pair):
                // running it again would be pure waste.
                continue;
            }
            if let Some(hop) = hop {
                p.life.clock.lap(hop, dispatched);
                let late = p.life.overdue(Duration::ZERO);
                if let Some(late) = late.filter(|_| role == Role::Primary) {
                    shed += usize::from(self.fail(p, late, straggler));
                    continue;
                }
                let waited = p.life.clock.waited();
                let wait_us = u64::try_from(waited.as_micros()).unwrap_or(u64::MAX);
                self.tracer
                    .emit(Some(p.item.id), EventKind::Dequeued { wait_us });
            }
            live.push(i);
        }
        if shed > 0 {
            self.stats.add(Tally::Shed, shed as u64);
            let (shard, size) = (self.id, shed);
            self.tracer.emit(None, EventKind::Shed { shard, size });
        }
        let n = live.len();
        if n == 0 {
            return None;
        }

        // The payloads ride in the engine batch and come straight back;
        // the records never leave `members`.
        let items: Vec<BatchItem> = live
            .iter()
            .map(|&i| std::mem::take(&mut members[i].item))
            .collect();
        if let Some(watch) = &self.watch {
            watch.begin();
        }
        let solved = catch_unwind(AssertUnwindSafe(|| self.engine.solve_batch(&items)));
        if let Some(watch) = &self.watch {
            watch.end();
        }
        for (&i, item) in live.iter().zip(items) {
            members[i].item = item;
        }
        let error = match solved {
            Ok(Ok(report)) => {
                self.fulfil(members, &live, report, role, straggler);
                return None;
            }
            Ok(Err(Error::DeviceFailure { code })) => SolveError::DeviceFailure { code },
            Ok(Err(_)) => SolveError::DeviceFailure {
                code: "engine_error",
            },
            Err(payload) => SolveError::WorkerPanic {
                detail: panic_detail(&*payload),
            },
        };
        self.stats.on_launch(n, None);
        self.feed_breaker(n, n);
        Some(error)
    }

    /// Count a finished launch and feed the breaker, then deliver each
    /// outcome. Both happen before the first send, so a caller woken by
    /// its ticket already sees its outcome counted and any trip in force.
    fn fulfil(
        &self,
        members: &mut [Pending],
        live: &[usize],
        report: BatchReport,
        role: Role,
        straggler: &StragglerRule,
    ) {
        let n = live.len();
        debug_assert_eq!(report.outcomes.len(), n);
        self.stats.on_launch(n, Some(&report));
        let degraded = report.outcomes.iter().filter(|o| o.is_degraded()).count();
        self.feed_breaker(n, degraded);
        let slowest = report
            .outcomes
            .iter()
            .enumerate()
            .max_by_key(|&(k, o)| (o.iterations, Reverse(k)))
            .map(|(k, _)| k)
            .filter(|_| n > 1);
        let sim = report.split.per_item(n);
        let finished = Instant::now();
        let mut won = 0;
        for (k, (&i, o)) in live.iter().zip(report.outcomes).enumerate() {
            let life = &mut members[i].life;
            // The wait is the one the request had at dispatch; the
            // latency runs to the end of the launch.
            let wait = life.clock.waited();
            life.clock.lap(self.exec_phase, finished);
            let sample = Some((wait, life.clock.waited()));
            let (id, residual, rungs) = (o.id, o.residual, o.rungs.len());
            let (settled, outcome) = settle(o, n, wait);
            let delivered = life.deliver(id, &self.tracer, &self.classes, outcome, |outcome| {
                self.stats.on_outcome(outcome, sample);
                self.tracer.emit(
                    Some(id),
                    EventKind::Terminal {
                        outcome: settled.outcome,
                        iterations: settled.iterations,
                        residual,
                        rungs,
                    },
                );
                Settled {
                    straggler: straggler.flags(slowest == Some(k)),
                    sim: Some(sim),
                    ..settled
                }
            });
            won += usize::from(delivered);
        }
        if let (Role::Hedge { primary: loser }, true) = (role, won > 0) {
            self.stats.add(Tally::HedgeWon, 1);
            let (winner, size) = (self.id, won);
            self.tracer.emit(
                None,
                EventKind::HedgeWon {
                    winner,
                    loser,
                    size,
                },
            );
        }
    }

    /// Retry a failed primary flight on a peer, as the policy allows:
    /// book the failed attempt, sleep its seeded backoff, and hand the
    /// chunk to `requeue`. True once no member is left to this worker:
    /// the chunk was requeued, or the backoff ran every member out of
    /// its deadline.
    fn retry_elsewhere(&self, chunk: &mut Chunk, error: &SolveError, requeue: Requeue<'_>) -> bool {
        let failed_at = Instant::now();
        let next = chunk.attempt + 1;
        let lead = chunk.items.first().map_or(0, |p| p.item.id);
        let backoff = self.retry.backoff(next, lead);
        // The failed attempt's wall time lands in this worker's phase. A
        // member the backoff would push past its deadline fails now
        // instead of burning an attempt.
        let Chunk {
            items, straggler, ..
        } = chunk;
        items.retain_mut(|p| {
            if p.life.slot.is_claimed() {
                return false;
            }
            p.life.clock.lap(self.exec_phase, failed_at);
            let Some(late) = p.life.overdue(backoff) else {
                return true;
            };
            self.fail(p, late, straggler);
            false
        });
        if items.is_empty() {
            return true;
        }
        std::thread::sleep(backoff);
        let slept = Instant::now();
        for p in items.iter_mut() {
            p.life.clock.lap(Phase::Backoff, slept);
        }
        let (size, items) = (items.len(), std::mem::take(items));
        let retried = Chunk {
            items,
            origin: chunk.origin,
            attempt: next,
            straggler: chunk.straggler.clone(),
        };
        match requeue(retried) {
            Ok(to) => {
                self.stats.add(Tally::Retry, 1);
                self.tracer.emit(
                    None,
                    EventKind::RetryAttempt {
                        from: self.id,
                        to,
                        size,
                        attempt: next,
                        backoff_us: backoff.as_micros() as u64,
                        reason: failure_tag(error),
                    },
                );
                true
            }
            Err(back) => {
                *chunk = back;
                false
            }
        }
    }

    /// Deliver `error` to every unclaimed member; the failed launch's
    /// wall time lands in this worker's phase.
    fn fail_all(&self, members: &mut [Pending], error: SolveError, straggler: &StragglerRule) {
        let now = Instant::now();
        for p in members.iter_mut().filter(|p| !p.life.slot.is_claimed()) {
            p.life.clock.lap(self.exec_phase, now);
            self.fail(p, error.clone(), straggler);
        }
    }

    /// Deliver one terminal failure through the funnel; true iff it won
    /// the reply slot.
    fn fail(&self, p: &Pending, error: SolveError, straggler: &StragglerRule) -> bool {
        let id = p.item.id;
        let outcome = failure_tag(&error);
        p.life
            .deliver(id, &self.tracer, &self.classes, Err(error), |delivered| {
                self.stats.on_outcome(delivered, None);
                self.tracer.emit(
                    Some(id),
                    EventKind::Terminal {
                        outcome,
                        iterations: 0,
                        residual: f64::NAN,
                        rungs: 0,
                    },
                );
                Settled::failure(outcome, straggler.flags(false))
            })
    }

    /// Feed one launch's health to the breaker: `degraded` of `total`
    /// systems failed or fell back to banded LU. A trip is counted,
    /// emits `BreakerTrip` and dumps the flight recorder, whose recent
    /// history is the trip's post-mortem.
    fn feed_breaker(&self, total: usize, degraded: usize) {
        let Some(breaker) = &self.breaker else {
            return;
        };
        if breaker.on_batch(Instant::now(), total, degraded) {
            self.stats.add(Tally::BreakerTrip, 1);
            self.tracer.emit(None, EventKind::BreakerTrip);
            let _ = self.tracer.dump_flight("breaker_trip");
        }
    }
}

/// The outcome tag of a failure the executor delivers.
fn failure_tag(error: &SolveError) -> &'static str {
    match error {
        SolveError::DeadlineExceeded { .. } => "deadline_exceeded",
        SolveError::WorkerPanic { .. } => "worker_panic",
        _ => "device_failure",
    }
}

/// Best-effort text of a caught panic's payload.
fn panic_detail(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}
