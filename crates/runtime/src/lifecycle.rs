//! The request lifecycle both serving cores share: the pending record,
//! its phase clock, reply slot and deadline, the ledger builder, and the
//! terminal funnel.
//!
//! [`SolveService`](crate::SolveService) and the fleet's shard workers
//! differ in how they schedule work, not in what a request is: a
//! payload, a reply slot, a wall-phase clock and an optional deadline.
//! Both run every formed batch through the one executor,
//! [`Worker::execute`](crate::Worker::execute); what a front end and
//! the executor book, this module turns into one balanced
//! [`PhaseLedger`], and every terminal outcome leaves through one
//! funnel, [`Lifecycle::deliver`].
//!
//! The exactly-once contract lives in [`OutcomeSlot`]. Retries and
//! hedge duplicates mean a request can be *executed* more than once,
//! but only the first executor to reach a terminal outcome wins the
//! slot; every later delivery attempt is a no-op, and counters move only
//! on the winning delivery, so accounting matches what callers observe.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use batsolv_trace::{classify, EventKind, PhaseLedger, Tracer};

use crate::classes::ClassTracker;
use crate::dispatcher::{BatchItem, ItemOutcome, SimSplit};
use crate::request::{RequestId, Solution, SolveError, SolveMethod, SolveOutcome, SolveRequest};

/// Single-shot, first-winner-wins outcome channel for one request.
///
/// `claimed` is the race arbiter: the first claimer swaps it true and
/// takes the sender; everyone else gets nothing. The sender is consumed
/// by the winning delivery, so the receiver's `recv` also unblocks via
/// disconnect if the service is torn down before any delivery.
pub struct OutcomeSlot {
    claimed: AtomicBool,
    tx: Mutex<Option<mpsc::Sender<SolveOutcome>>>,
}

impl OutcomeSlot {
    fn new(tx: mpsc::Sender<SolveOutcome>) -> OutcomeSlot {
        OutcomeSlot {
            claimed: AtomicBool::new(false),
            tx: Mutex::new(Some(tx)),
        }
    }

    /// Claim the slot, returning its sender to the winner. Losers get
    /// `None`. Private: the only claimer is [`Lifecycle::deliver`], which
    /// fixes what happens between the claim and the send.
    fn claim(&self) -> Option<mpsc::Sender<SolveOutcome>> {
        if self.claimed.swap(true, Ordering::AcqRel) {
            return None;
        }
        self.tx.lock().expect("outcome slot lock poisoned").take()
    }

    /// Deliver the terminal outcome if no one has yet; true iff this call
    /// won. Keeps the race tests focused on the claim arbiter itself.
    #[cfg(test)]
    fn deliver(&self, outcome: SolveOutcome) -> bool {
        match self.claim() {
            Some(tx) => {
                let _ = tx.send(outcome);
                true
            }
            None => false,
        }
    }

    /// True once some executor has won the slot. Advisory only — a
    /// false answer can be stale by the time the caller acts on it, so
    /// it gates *work avoidance*, never correctness.
    pub fn is_claimed(&self) -> bool {
        self.claimed.load(Ordering::Acquire)
    }
}

/// A wall phase a core books time to. `other` is never booked: the
/// ledger closes it as the residual of the end-to-end span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Validation and placement, submit → first queue.
    Admission,
    /// First-hop queue wait.
    Queue,
    /// Held by the batch former, pop → dispatch.
    Linger,
    /// A retry's re-queue hop.
    Transit,
    /// Retry backoff slept on the request's behalf.
    Backoff,
    /// A hedge duplicate's enqueue → hedge-dispatch span.
    Hedge,
    /// Dispatch wall time on a GPU engine.
    Solve,
    /// Dispatch wall time on the CPU spill pool.
    Spill,
}

/// A request's wall-phase stopwatch, from submission to its ledger.
///
/// `submitted` anchors the end-to-end span and never moves. `mark`
/// starts the current hop: the request's entry into a queue, then every
/// boundary a core books with [`PhaseClock::lap`]. The accumulators hold
/// the booked µs of each [`Phase`].
#[derive(Clone, Copy, Debug)]
pub struct PhaseClock {
    submitted: Instant,
    mark: Instant,
    booked_us: [f64; 8],
}

impl PhaseClock {
    /// A clock for a request submitted at `submitted` that entered its
    /// first queue at `enqueued`; the span between is admission.
    pub fn start(submitted: Instant, enqueued: Instant) -> PhaseClock {
        let mut clock = PhaseClock {
            submitted,
            mark: submitted,
            booked_us: [0.0; 8],
        };
        clock.lap(Phase::Admission, enqueued);
        clock
    }

    /// Book the span from the mark to `at` to `phase`, move the mark to
    /// `at`, and return the span. The mark never moves back, so no wall
    /// span is booked twice.
    pub fn lap(&mut self, phase: Phase, at: Instant) -> Duration {
        let span = at.saturating_duration_since(self.mark);
        self.booked_us[phase as usize] += span.as_secs_f64() * 1e6;
        self.mark = self.mark.max(at);
        span
    }

    /// Wall time from submission to the mark, the last boundary booked.
    /// Read at dispatch, before the solve is booked, it is the request's
    /// wait: admission, queue and linger.
    pub fn waited(&self) -> Duration {
        self.mark.saturating_duration_since(self.submitted)
    }

    /// The ledger builder: the booked phases, the terminal's record and
    /// the end-to-end span to `now`, closed so the wall phases partition
    /// it exactly (the unbooked rest lands in `other`).
    fn ledger(&self, settled: &Settled, has_deadline: bool, now: Instant) -> PhaseLedger {
        let booked = |phase: Phase| self.booked_us[phase as usize];
        let sim = settled.sim.unwrap_or_default();
        let mut ledger = PhaseLedger {
            outcome: settled.outcome,
            class: classify(settled.iterations, settled.converged),
            iterations: settled.iterations,
            straggler: settled.straggler,
            deadline: has_deadline.then_some(settled.outcome != "deadline_exceeded"),
            end_to_end_us: now.saturating_duration_since(self.submitted).as_secs_f64() * 1e6,
            admission_us: booked(Phase::Admission),
            queue_us: booked(Phase::Queue),
            linger_us: booked(Phase::Linger),
            transit_us: booked(Phase::Transit),
            backoff_us: booked(Phase::Backoff),
            hedge_us: booked(Phase::Hedge),
            solve_us: booked(Phase::Solve),
            spill_us: booked(Phase::Spill),
            other_us: 0.0,
            sim_spmv_us: sim.spmv_us,
            sim_reduction_us: sim.reduction_us,
            sim_sync_us: sim.sync_us,
            sim_transfer_us: sim.transfer_us,
        };
        ledger.close();
        ledger
    }
}

/// What a terminal outcome tells its ledger.
#[derive(Clone, Copy, Debug)]
pub struct Settled {
    /// Outcome tag, as in the `terminal` event.
    pub outcome: &'static str,
    /// Solver iterations across rungs.
    pub iterations: u32,
    /// Whether a solution within tolerance came back.
    pub converged: bool,
    /// The core's straggler rule picked this request.
    pub straggler: bool,
    /// This request's share of the dispatch's simulated solve split.
    pub sim: Option<SimSplit>,
}

impl Settled {
    /// A failure that produced no iterate.
    pub fn failure(outcome: &'static str, straggler: bool) -> Settled {
        Settled {
            outcome,
            iterations: 0,
            converged: false,
            straggler,
            sim: None,
        }
    }
}

/// The one mapping from an engine outcome to its ledger record and the
/// caller's outcome: a converged system becomes a [`Solution`], any
/// other a [`SolveError::NotConverged`].
pub(crate) fn settle(
    o: ItemOutcome,
    batch_size: usize,
    queue_wait: Duration,
) -> (Settled, SolveOutcome) {
    let outcome = match (o.converged, o.method) {
        (false, _) => "not_converged",
        (true, SolveMethod::Bicgstab) => "converged_bicgstab",
        (true, SolveMethod::Gmres) => "converged_gmres",
        (true, SolveMethod::BandedLuFallback) => "converged_banded_lu",
    };
    let settled = Settled {
        outcome,
        iterations: o.iterations,
        converged: o.converged,
        straggler: false,
        sim: None,
    };
    let reply = if o.converged {
        Ok(Solution {
            x: o.x,
            iterations: o.iterations,
            residual: o.residual,
            method: o.method,
            batch_size,
            queue_wait,
            rungs: o.rungs,
        })
    } else {
        Err(SolveError::NotConverged {
            iterations: o.iterations,
            residual: o.residual,
            breakdown: o.breakdown,
            rungs: o.rungs,
        })
    };
    (settled, reply)
}

/// A request's lifecycle apart from its payload. It stays with the core
/// while the payload rides in an engine batch.
#[derive(Clone)]
pub struct Lifecycle {
    /// Exactly-once reply channel, shared with any hedge duplicate.
    pub slot: Arc<OutcomeSlot>,
    /// Wall phases booked so far.
    pub clock: PhaseClock,
    /// The request's deadline: the longest wall wait, submission to
    /// dispatch, it accepts.
    pub deadline: Option<Duration>,
}

impl Lifecycle {
    /// The [`SolveError::DeadlineExceeded`] this request has earned if
    /// its wall wait so far plus the `ahead` it is about to wait reaches
    /// its deadline.
    pub fn overdue(&self, ahead: Duration) -> Option<SolveError> {
        let deadline = self.deadline?;
        let waited = self.clock.waited() + ahead;
        (waited >= deadline).then_some(SolveError::DeadlineExceeded { waited, deadline })
    }

    /// The terminal funnel: the one way an outcome leaves either core.
    ///
    /// In order: claim the slot (a loser returns false and delivers
    /// nothing); run `count` on the outcome, the executor's counters and
    /// straggler rule, which must see winners only; feed the ledger to
    /// `classes` and emit it; send. A caller woken by the send therefore
    /// reads counters and class statistics that already include its
    /// outcome.
    pub fn deliver(
        &self,
        id: RequestId,
        tracer: &Tracer,
        classes: &ClassTracker,
        outcome: SolveOutcome,
        count: impl FnOnce(&SolveOutcome) -> Settled,
    ) -> bool {
        let Some(tx) = self.slot.claim() else {
            return false;
        };
        let settled = count(&outcome);
        let ledger = self
            .clock
            .ledger(&settled, self.deadline.is_some(), Instant::now());
        classes.observe_ledger(Some(id), &ledger);
        tracer.emit(Some(id), EventKind::Ledger(ledger));
        // A dropped receiver is the caller's business, not ours.
        let _ = tx.send(outcome);
        true
    }
}

/// One accepted request on its way to an engine: the payload and its
/// lifecycle.
#[derive(Clone)]
pub struct Pending {
    /// What the engine solves.
    pub item: BatchItem,
    /// Everything else.
    pub life: Lifecycle,
}

impl Pending {
    /// Accept `request` as `id`: admission began at `submitted` and ends
    /// at `enqueued`, its entry into a first queue. Returns the record
    /// and the receiver the caller's ticket waits on.
    pub fn accept(
        id: RequestId,
        request: SolveRequest,
        submitted: Instant,
        enqueued: Instant,
    ) -> (Pending, mpsc::Receiver<SolveOutcome>) {
        let (tx, rx) = mpsc::channel();
        let pending = Pending {
            item: BatchItem {
                id,
                values: request.values,
                rhs: request.rhs,
                guess: request.guess,
                tolerance: request.tolerance,
            },
            life: Lifecycle {
                slot: Arc::new(OutcomeSlot::new(tx)),
                clock: PhaseClock::start(submitted, enqueued),
                deadline: request.deadline,
            },
        };
        (pending, rx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_partition_the_ledger() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut clock = PhaseClock::start(t0, at(10));
        assert_eq!(clock.lap(Phase::Queue, at(40)), Duration::from_micros(30));
        clock.lap(Phase::Solve, at(100));
        clock.lap(Phase::Solve, at(150));
        // A lap behind the mark books nothing and keeps the mark.
        assert_eq!(clock.lap(Phase::Linger, at(120)), Duration::ZERO);
        let settled = Settled::failure("deadline_exceeded", true);
        let l = clock.ledger(&settled, true, at(160));
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
        assert!(close(l.end_to_end_us, 160.0));
        assert!(close(l.admission_us, 10.0) && close(l.queue_us, 30.0));
        assert!(close(l.solve_us, 110.0) && close(l.other_us, 10.0));
        assert_eq!(l.linger_us, 0.0);
        assert_eq!(l.deadline, Some(false));
        assert!(l.straggler && l.balanced_within(1e-6));
    }

    #[test]
    fn a_deadline_is_overdue_once_the_wall_wait_reaches_it() {
        let t0 = Instant::now();
        let (request, ms) = (SolveRequest::new(vec![], vec![]), Duration::from_millis);
        let (mut p, _rx) = Pending::accept(0, request.clone().with_deadline(ms(10)), t0, t0);
        p.life.clock.lap(Phase::Queue, t0 + ms(4));
        assert!(p.life.overdue(Duration::ZERO).is_none());
        assert!(p.life.overdue(ms(5)).is_none(), "9 ms of 10");
        match p.life.overdue(ms(6)) {
            Some(SolveError::DeadlineExceeded { waited, deadline }) => {
                assert_eq!(
                    (waited, deadline),
                    (ms(10), ms(10)),
                    "exactly at the deadline"
                );
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let (zero, _rx) = Pending::accept(1, request.clone().with_deadline(ms(0)), t0, t0);
        assert!(
            zero.life.overdue(Duration::ZERO).is_some(),
            "overdue from birth"
        );
        let (none, _rx) = Pending::accept(2, request, t0, t0);
        assert!(
            none.life.overdue(ms(1 << 20)).is_none(),
            "no deadline, never overdue"
        );
    }

    #[test]
    fn slot_delivers_exactly_once() {
        let (tx, rx) = mpsc::channel();
        let slot = OutcomeSlot::new(tx);
        assert!(!slot.is_claimed());
        assert!(slot.deliver(Err(SolveError::ServiceShutdown)));
        assert!(slot.is_claimed());
        // Second delivery loses the race and is dropped.
        assert!(!slot.deliver(Err(SolveError::DeviceFailure { code: "too_late" })));
        let got = rx.recv().unwrap();
        assert!(matches!(got, Err(SolveError::ServiceShutdown)));
        // Nothing else arrives: sender consumed, channel disconnected.
        assert!(rx.recv().is_err());
    }

    #[test]
    fn concurrent_deliveries_produce_one_winner() {
        for _ in 0..64 {
            let (tx, rx) = mpsc::channel();
            let slot = Arc::new(OutcomeSlot::new(tx));
            let wins: Vec<bool> = std::thread::scope(|s| {
                (0..4)
                    .map(|_| {
                        let slot = Arc::clone(&slot);
                        s.spawn(move || slot.deliver(Err(SolveError::ServiceShutdown)))
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            assert_eq!(wins.iter().filter(|&&w| w).count(), 1);
            assert_eq!(rx.try_iter().count(), 1);
        }
    }
}
