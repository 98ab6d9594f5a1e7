//! Deadline budgets: pure arithmetic over the time a request is allowed
//! to spend between admission and its terminal outcome.
//!
//! A [`DeadlineBudget`] is minted at admission from the request's
//! deadline and then *debited* at every hop — queue wait at dispatch,
//! retry backoff, re-queue wait after a steal or re-route. The budget is
//! a plain value (no clocks inside): every debit is an explicit,
//! testable operation, so "the budget expired while the chunk was
//! queued" is an arithmetic fact rather than a wall-clock race.

use std::time::Duration;

/// Remaining time a request may spend in the service.
///
/// `consumed` only grows (saturating at `total`); `remaining` is the
/// difference. A budget with `total == 0` is exhausted from birth —
/// admission rejects it as infeasible before it can queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeadlineBudget {
    total: Duration,
    consumed: Duration,
}

impl DeadlineBudget {
    /// A fresh budget holding the request's whole deadline.
    pub fn new(total: Duration) -> DeadlineBudget {
        DeadlineBudget {
            total,
            consumed: Duration::ZERO,
        }
    }

    /// The deadline the budget was minted from.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Time debited so far (capped at `total`).
    pub fn consumed(&self) -> Duration {
        self.consumed
    }

    /// Time left before the deadline.
    pub fn remaining(&self) -> Duration {
        self.total.saturating_sub(self.consumed)
    }

    /// True once every nanosecond of the budget is spent.
    pub fn is_exhausted(&self) -> bool {
        self.consumed >= self.total
    }

    /// Debit one hop's cost; returns the remaining budget. Saturates at
    /// `total` — a debit can exhaust the budget but never makes
    /// `consumed` overflow past it.
    pub fn debit(&mut self, cost: Duration) -> Duration {
        self.consumed = self.consumed.saturating_add(cost).min(self.total);
        self.remaining()
    }

    /// True when the remaining budget covers a predicted cost.
    pub fn covers(&self, predicted: Duration) -> bool {
        !self.is_exhausted() && predicted <= self.remaining()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_budget_is_exhausted_from_birth() {
        let b = DeadlineBudget::new(Duration::ZERO);
        assert!(b.is_exhausted());
        assert_eq!(b.remaining(), Duration::ZERO);
        assert!(!b.covers(Duration::from_nanos(1)));
        assert!(!b.covers(Duration::ZERO), "exhausted covers nothing");
    }

    #[test]
    fn debit_accumulates_and_saturates() {
        let mut b = DeadlineBudget::new(Duration::from_millis(10));
        assert_eq!(b.debit(Duration::from_millis(4)), Duration::from_millis(6));
        assert_eq!(b.consumed(), Duration::from_millis(4));
        assert!(!b.is_exhausted());
        // A debit past the total exhausts but never overflows consumed.
        assert_eq!(b.debit(Duration::from_secs(100)), Duration::ZERO);
        assert!(b.is_exhausted());
        assert_eq!(b.consumed(), b.total());
        // Further debits are no-ops on an exhausted budget.
        assert_eq!(b.debit(Duration::from_millis(1)), Duration::ZERO);
        assert_eq!(b.consumed(), Duration::from_millis(10));
    }

    #[test]
    fn exact_exhaustion_boundary() {
        let mut b = DeadlineBudget::new(Duration::from_millis(5));
        b.debit(Duration::from_millis(5));
        assert!(b.is_exhausted(), "consumed == total is exhausted");
        assert_eq!(b.remaining(), Duration::ZERO);
    }

    #[test]
    fn covers_compares_against_remaining_not_total() {
        let mut b = DeadlineBudget::new(Duration::from_millis(10));
        assert!(b.covers(Duration::from_millis(10)));
        b.debit(Duration::from_millis(7));
        assert!(b.covers(Duration::from_millis(3)));
        assert!(!b.covers(Duration::from_millis(4)));
    }

    #[test]
    fn budget_is_a_value_and_survives_requeue_copies() {
        // A steal or retry re-queue copies the budget with its consumed
        // time intact — debits are never lost across hops.
        let mut b = DeadlineBudget::new(Duration::from_millis(20));
        b.debit(Duration::from_millis(8));
        let requeued = b; // Copy
        assert_eq!(requeued.consumed(), Duration::from_millis(8));
        assert_eq!(requeued.remaining(), Duration::from_millis(12));
    }
}
