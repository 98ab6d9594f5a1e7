//! Request/response types of the solve service.

use std::sync::mpsc;
use std::time::Duration;

/// Identifier assigned to each accepted request, unique per service.
pub type RequestId = u64;

/// One linear system `A x = b` to solve, where `A` shares the service's
/// [`SparsityPattern`](batsolv_formats::SparsityPattern) and only the
/// numeric values differ (the collision-operator setting: every mesh
/// node's velocity-grid system has the same stencil).
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// CSR values, `pattern.nnz()` of them, in pattern order.
    pub values: Vec<f64>,
    /// Right-hand side, `pattern.num_rows()` entries.
    pub rhs: Vec<f64>,
    /// Optional initial guess (Picard warm start); zeros when absent.
    pub guess: Option<Vec<f64>>,
    /// Per-request absolute residual tolerance; the service default when
    /// absent. A batch is solved to the tightest tolerance it contains,
    /// so submission refuses one that is not positive and finite.
    pub tolerance: Option<f64>,
    /// Maximum time the request may wait in the queue before being
    /// abandoned with [`SolveError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
}

impl SolveRequest {
    /// A request with service-default tolerance, no deadline, zero guess.
    pub fn new(values: Vec<f64>, rhs: Vec<f64>) -> SolveRequest {
        SolveRequest {
            values,
            rhs,
            guess: None,
            tolerance: None,
            deadline: None,
        }
    }

    /// Attach a warm-start initial guess.
    pub fn with_guess(mut self, guess: Vec<f64>) -> Self {
        self.guess = Some(guess);
        self
    }

    /// Attach a per-request tolerance.
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = Some(tol);
        self
    }

    /// Attach a queue-wait deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The submission check both serving cores run on the tolerance. A
    /// fused launch stops at its tightest member's tolerance and the
    /// stop test is `residual < tol`, so a zero, negative or NaN
    /// tolerance would make the whole batch unreachable and drag every
    /// member down the ladder.
    pub fn check_tolerance(&self) -> Result<(), SubmitError> {
        match self.tolerance {
            Some(tolerance) if !(tolerance.is_finite() && tolerance > 0.0) => {
                Err(SubmitError::InvalidTolerance { tolerance })
            }
            _ => Ok(()),
        }
    }

    /// The submission check both serving cores run on the shape: the
    /// values must fill a pattern of `nnz` entries, and the right-hand
    /// side and any guess must have `n` rows.
    pub fn check_shape(&self, nnz: usize, n: usize) -> Result<(), SubmitError> {
        let guess = self.guess.as_ref().map_or(n, Vec::len);
        let fields = [
            ("values", nnz, self.values.len()),
            ("rhs", n, self.rhs.len()),
            ("guess", n, guess),
        ];
        match fields
            .into_iter()
            .find(|&(_, expected, got)| expected != got)
        {
            Some((field, expected, got)) => Err(SubmitError::ShapeMismatch {
                field,
                expected,
                got,
            }),
            None => Ok(()),
        }
    }
}

/// How a converged solution was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveMethod {
    /// The fused batched BiCGSTAB kernel (the paper's Algorithm 1) — the
    /// first rung of the escalation ladder.
    Bicgstab,
    /// Restarted GMRES — the second rung, retried on systems BiCGSTAB
    /// broke down on or left unconverged.
    Gmres,
    /// The banded-LU direct fallback (`dgbsv` baseline) — the last rung.
    BandedLuFallback,
}

impl SolveMethod {
    /// Short name for logs and stats.
    pub fn name(self) -> &'static str {
        match self {
            SolveMethod::Bicgstab => "bicgstab",
            SolveMethod::Gmres => "gmres",
            SolveMethod::BandedLuFallback => "banded-lu",
        }
    }
}

/// One rung of the escalation ladder as attempted on a request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RungAttempt {
    /// Which solver ran.
    pub method: SolveMethod,
    /// Iterations it spent (1 for the direct rung).
    pub iterations: u32,
    /// Residual it reached.
    pub residual: f64,
    /// Whether this rung converged the system.
    pub converged: bool,
    /// Breakdown tag, if the rung broke down.
    pub breakdown: Option<&'static str>,
}

/// A converged solution.
#[derive(Clone, Debug)]
pub struct Solution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations the iterative solver spent on this system (for the
    /// fallback path: the iterations burned before falling back).
    pub iterations: u32,
    /// Final true residual 2-norm.
    pub residual: f64,
    /// Which solver produced `x`.
    pub method: SolveMethod,
    /// Size of the fused batch this request was dispatched in.
    pub batch_size: usize,
    /// Time the request spent queued before dispatch.
    pub queue_wait: Duration,
    /// Every escalation rung attempted on this request, in order; the
    /// last entry is the one that produced `x`.
    pub rungs: Vec<RungAttempt>,
}

/// Structured failure of an accepted request.
#[derive(Clone, Debug)]
pub enum SolveError {
    /// The request waited in the queue past its deadline and was dropped
    /// before dispatch.
    DeadlineExceeded {
        /// How long it actually waited.
        waited: Duration,
        /// The deadline it carried.
        deadline: Duration,
    },
    /// No rung of the escalation ladder produced a solution within
    /// tolerance.
    NotConverged {
        /// Iterations spent.
        iterations: u32,
        /// Final residual reached.
        residual: f64,
        /// Breakdown tag from the solver, if any (e.g. `rho_zero`).
        breakdown: Option<&'static str>,
        /// Every rung attempted before giving up.
        rungs: Vec<RungAttempt>,
    },
    /// The worker panicked while solving the batch this request was
    /// isolated into. Healthy batch neighbors are re-dispatched; only the
    /// request whose singleton dispatch still panicked gets this error.
    WorkerPanic {
        /// Panic payload, when it was a string.
        detail: String,
    },
    /// The device (or its simulator) failed the fused launch carrying
    /// this request, and its singleton retry failed too.
    DeviceFailure {
        /// Machine-readable failure code.
        code: &'static str,
    },
    /// The service shut down before this request was dispatched.
    ServiceShutdown,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::DeadlineExceeded { waited, deadline } => write!(
                f,
                "deadline exceeded: waited {:.3} ms against a {:.3} ms deadline",
                waited.as_secs_f64() * 1e3,
                deadline.as_secs_f64() * 1e3
            ),
            SolveError::NotConverged {
                iterations,
                residual,
                breakdown,
                rungs,
            } => write!(
                f,
                "not converged after {iterations} iterations across {} rung(s) \
                 (residual {residual:.3e}{})",
                rungs.len().max(1),
                breakdown
                    .map(|b| format!(", breakdown: {b}"))
                    .unwrap_or_default()
            ),
            SolveError::WorkerPanic { detail } => {
                write!(f, "worker panicked while solving this request: {detail}")
            }
            SolveError::DeviceFailure { code } => {
                write!(f, "device failed the launch ({code})")
            }
            SolveError::ServiceShutdown => write!(f, "service shut down before dispatch"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Per-request terminal outcome.
pub type SolveOutcome = Result<Solution, SolveError>;

/// Why a request was rejected at submission (backpressure is explicit:
/// the service never silently drops work).
#[derive(Clone, Debug)]
pub enum SubmitError {
    /// The bounded submission queue is full; retry later or shed load.
    QueueFull {
        /// The configured queue bound.
        capacity: usize,
    },
    /// A field does not match the service's sparsity pattern.
    ShapeMismatch {
        /// Which field (`values`, `rhs`, `guess`).
        field: &'static str,
        /// Length the pattern requires.
        expected: usize,
        /// Length submitted.
        got: usize,
    },
    /// The per-request tolerance is zero, negative or not finite.
    InvalidTolerance {
        /// The tolerance submitted.
        tolerance: f64,
    },
    /// The admission gate refused the payload (non-finite data, unusable
    /// Jacobi diagonal) before it could poison a fused launch.
    Rejected {
        /// The structured reason.
        reason: crate::admission::RejectReason,
    },
    /// The circuit breaker is open after a run of degraded batches; the
    /// service is shedding load while the backend recovers.
    CircuitOpen {
        /// Hint: how long until the next half-open probe is admitted.
        retry_after: Duration,
    },
    /// The request's deadline budget cannot cover even the device
    /// model's predicted solve cost, so queueing it would only burn
    /// capacity on work guaranteed to miss its deadline. Rejected at
    /// admission instead of shed later.
    Infeasible {
        /// Predicted solve cost of one chunk on the configured device.
        predicted: Duration,
        /// The deadline budget the request carried.
        budget: Duration,
    },
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            SubmitError::ShapeMismatch {
                field,
                expected,
                got,
            } => write!(f, "{field} has length {got}, pattern requires {expected}"),
            SubmitError::InvalidTolerance { tolerance } => {
                write!(f, "tolerance {tolerance:e} is not positive and finite")
            }
            SubmitError::Rejected { reason } => write!(f, "rejected at admission: {reason}"),
            SubmitError::CircuitOpen { retry_after } => write!(
                f,
                "circuit breaker open, retry in {:.1} ms",
                retry_after.as_secs_f64() * 1e3
            ),
            SubmitError::Infeasible { predicted, budget } => write!(
                f,
                "infeasible deadline: predicted solve cost {:.3} ms exceeds the \
                 {:.3} ms budget",
                predicted.as_secs_f64() * 1e3,
                budget.as_secs_f64() * 1e3
            ),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Handle returned by a successful submission; redeem it for the
/// request's outcome.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) id: RequestId,
    pub(crate) rx: mpsc::Receiver<SolveOutcome>,
}

impl Ticket {
    /// The id assigned to the request.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Block until the request reaches a terminal outcome.
    pub fn wait(self) -> SolveOutcome {
        self.rx.recv().unwrap_or(Err(SolveError::ServiceShutdown))
    }

    /// Like [`Ticket::wait`] with a timeout; `None` if the outcome is not
    /// ready in time (the ticket stays redeemable).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<SolveOutcome> {
        match self.rx.recv_timeout(timeout) {
            Ok(outcome) => Some(outcome),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(SolveError::ServiceShutdown)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder() {
        let r = SolveRequest::new(vec![1.0; 5], vec![2.0; 3])
            .with_guess(vec![0.5; 3])
            .with_tolerance(1e-6)
            .with_deadline(Duration::from_millis(10));
        assert_eq!(r.values.len(), 5);
        assert_eq!(r.guess.as_ref().unwrap().len(), 3);
        assert_eq!(r.tolerance, Some(1e-6));
        assert_eq!(r.deadline, Some(Duration::from_millis(10)));
    }

    #[test]
    fn error_display() {
        let e = SolveError::NotConverged {
            iterations: 500,
            residual: 1.2e-3,
            breakdown: None,
            rungs: vec![],
        };
        assert!(e.to_string().contains("500 iterations"));
        let q = SubmitError::QueueFull { capacity: 64 };
        assert!(q.to_string().contains("64"));
        let p = SolveError::WorkerPanic {
            detail: "boom".into(),
        };
        assert!(p.to_string().contains("boom"));
        let d = SolveError::DeviceFailure {
            code: "launch_failure",
        };
        assert!(d.to_string().contains("launch_failure"));
        let c = SubmitError::CircuitOpen {
            retry_after: Duration::from_millis(5),
        };
        assert!(c.to_string().contains("circuit breaker open"));
        let i = SubmitError::Infeasible {
            predicted: Duration::from_millis(3),
            budget: Duration::from_millis(1),
        };
        assert!(i.to_string().contains("infeasible deadline"));
    }

    #[test]
    fn ticket_resolves_to_shutdown_on_drop() {
        let (tx, rx) = mpsc::channel();
        let ticket = Ticket { id: 7, rx };
        assert_eq!(ticket.id(), 7);
        drop(tx);
        assert!(matches!(ticket.wait(), Err(SolveError::ServiceShutdown)));
    }
}
