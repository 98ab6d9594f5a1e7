//! Admission gate: structured validation at the service boundary.
//!
//! A fused batched launch has no way to excuse one poisoned member: a
//! single NaN in any system's values propagates through the shared
//! reductions of the batch dispatch machinery, and a zero Jacobi diagonal
//! turns the preconditioner into a NaN factory. The gate therefore
//! rejects bad requests *at submission*, before they can share a launch
//! with healthy work, with a structured [`RejectReason`] instead of a
//! generic error string.
//!
//! The diagonal positions are precomputed once from the service's
//! [`SparsityPattern`], so the per-request cost is one linear scan over
//! the payload the service is about to copy anyway.

use batsolv_formats::SparsityPattern;

/// Why the admission gate refused a request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RejectReason {
    /// A payload entry is NaN or infinite.
    NonFinite {
        /// Which field (`"values"`, `"rhs"`, `"guess"`).
        field: &'static str,
        /// Index of the first offending entry.
        index: usize,
    },
    /// A diagonal entry is missing from the pattern or exactly zero —
    /// the Jacobi preconditioner would divide by it.
    ZeroDiagonal {
        /// The offending row.
        row: usize,
        /// The diagonal value found (0.0 when the pattern has no
        /// diagonal entry in this row).
        value: f64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::NonFinite { field, index } => {
                write!(f, "{field}[{index}] is not finite")
            }
            RejectReason::ZeroDiagonal { row, value } => {
                write!(
                    f,
                    "diagonal of row {row} is {value:e}, unusable as a Jacobi pivot"
                )
            }
        }
    }
}

/// The precomputed gate: the diagonal positions of the pattern.
///
/// Only a zero or missing diagonal is rejected: a tiny but nonzero
/// pivot marks an ill-conditioned system, which is the escalation
/// ladder's job, not the gate's.
#[derive(Clone, Debug)]
pub struct AdmissionGate {
    /// `diag_idx[r]` is the CSR value index of `(r, r)`, if present.
    diag_idx: Vec<Option<usize>>,
}

impl AdmissionGate {
    /// Build the gate for `pattern`.
    pub fn new(pattern: &SparsityPattern) -> AdmissionGate {
        let diag_idx = (0..pattern.num_rows())
            .map(|r| pattern.find(r, r))
            .collect();
        AdmissionGate { diag_idx }
    }

    /// Validate one request's payload (shapes are checked upstream).
    pub fn check(
        &self,
        values: &[f64],
        rhs: &[f64],
        guess: Option<&[f64]>,
    ) -> Result<(), RejectReason> {
        for (field, data) in [("values", values), ("rhs", rhs)]
            .into_iter()
            .chain(guess.map(|g| ("guess", g)))
        {
            if let Some(index) = data.iter().position(|v| !v.is_finite()) {
                return Err(RejectReason::NonFinite { field, index });
            }
        }
        for (row, idx) in self.diag_idx.iter().enumerate() {
            let value = idx.map_or(0.0, |k| values[k]);
            if value == 0.0 {
                return Err(RejectReason::ZeroDiagonal { row, value });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn gate() -> (Arc<SparsityPattern>, AdmissionGate) {
        let p = Arc::new(SparsityPattern::dense(3));
        let g = AdmissionGate::new(&p);
        (p, g)
    }

    fn identity_values(n: usize) -> Vec<f64> {
        let mut v = vec![0.1; n * n];
        for r in 0..n {
            v[r * n + r] = 1.0;
        }
        v
    }

    #[test]
    fn clean_request_passes() {
        let (_, g) = gate();
        assert_eq!(g.check(&identity_values(3), &[1.0; 3], None), Ok(()));
        assert_eq!(
            g.check(&identity_values(3), &[1.0; 3], Some(&[0.0; 3])),
            Ok(())
        );
    }

    #[test]
    fn non_finite_entries_are_located() {
        let (_, g) = gate();
        let mut v = identity_values(3);
        v[5] = f64::NAN;
        assert_eq!(
            g.check(&v, &[1.0; 3], None),
            Err(RejectReason::NonFinite {
                field: "values",
                index: 5
            })
        );
        let mut rhs = [1.0; 3];
        rhs[2] = f64::INFINITY;
        assert_eq!(
            g.check(&identity_values(3), &rhs, None),
            Err(RejectReason::NonFinite {
                field: "rhs",
                index: 2
            })
        );
        let guess = [0.0, f64::NEG_INFINITY, 0.0];
        assert_eq!(
            g.check(&identity_values(3), &[1.0; 3], Some(&guess)),
            Err(RejectReason::NonFinite {
                field: "guess",
                index: 1
            })
        );
    }

    #[test]
    fn zero_diagonal_is_rejected_near_zero_admitted() {
        let (_, g) = gate();
        let mut v = identity_values(3);
        v[4] = 0.0; // diagonal of row 1 in dense(3)
        assert_eq!(
            g.check(&v, &[1.0; 3], None),
            Err(RejectReason::ZeroDiagonal { row: 1, value: 0.0 })
        );
        // A tiny-but-nonzero pivot passes the gate: conditioning
        // problems belong to the escalation ladder, not the gate.
        v[4] = 1e-300;
        assert_eq!(g.check(&v, &[1.0; 3], None), Ok(()));
    }

    #[test]
    fn missing_diagonal_entry_counts_as_zero() {
        // Pattern with no (1,1) entry at all.
        let p = SparsityPattern::from_coords(2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let g = AdmissionGate::new(&p);
        assert_eq!(
            g.check(&[1.0, 1.0, 1.0], &[1.0; 2], None),
            Err(RejectReason::ZeroDiagonal { row: 1, value: 0.0 })
        );
    }
}
