//! Work items flowing through the fleet: routed chunks of pending
//! systems, group progress, and the group ticket callers redeem for
//! outcomes. The pending record and its exactly-once reply slot are the
//! runtime's ([`batsolv_runtime::lifecycle`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use batsolv_runtime::{Pending, RequestId, SolveError, SolveOutcome};

/// Group-completion tracker for straggler attribution: the winning
/// delivery that drops `remaining` to zero finished the group, and its
/// phase ledger gets the `straggler` flag (only meaningful for groups
/// of more than one system).
pub(crate) struct GroupProgress {
    total: usize,
    remaining: AtomicUsize,
}

impl GroupProgress {
    pub fn new(total: usize) -> GroupProgress {
        GroupProgress {
            total,
            remaining: AtomicUsize::new(total),
        }
    }

    /// Record one terminal delivery; true iff it completed a group of
    /// more than one system (the group's straggler).
    pub fn finish_one(&self) -> bool {
        self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 && self.total > 1
    }
}

/// A routed unit of execution: the systems of one placement, tagged
/// with the shard the scheduler assigned them to. A thief executing a
/// stolen chunk keeps `origin` so steals stay attributable. A hedge
/// duplicate is a chunk of cloned [`Pending`]s: its own payloads, but
/// each [`OutcomeSlot`](batsolv_runtime::OutcomeSlot) shared through its
/// `Arc`, which keeps outcomes exactly-once.
pub(crate) struct Chunk {
    pub items: Vec<Pending>,
    /// The shard the scheduler originally dispatched the chunk to.
    pub origin: u32,
    /// 1-based execution attempt; bumped when the retry policy
    /// re-routes the chunk after a retryable failure.
    pub attempt: u32,
    /// Completion tracker of the group the chunk was placed from (a
    /// chunk never mixes groups).
    pub group: Arc<GroupProgress>,
}

impl Chunk {
    pub fn len(&self) -> usize {
        self.items.len()
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
