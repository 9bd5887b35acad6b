//! Training-time statistics reported by the estimators.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Summary of how an `opt-hash` estimator was trained — the quantities the
/// paper's synthetic experiments report (objective terms, timings) plus a few
/// sanity metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimatorStats {
    /// Name of the configured solver (`bcd`, `dp`, `milp`). A
    /// frequency-only prefix with no more distinct counts than buckets is
    /// solved by the exact equal-count shortcut whatever this names.
    pub solver: String,
    /// Name of the classifier used for unseen elements (`logreg`, `cart`,
    /// `rf`).
    pub classifier: String,
    /// Number of distinct prefix elements whose IDs are stored.
    pub stored_elements: usize,
    /// Number of buckets of the learned scheme.
    pub buckets: usize,
    /// Estimation-error term of the solved objective on the prefix.
    pub estimation_error: f64,
    /// Similarity-error term of the solved objective on the prefix.
    pub similarity_error: f64,
    /// Overall objective `λ·est + (1−λ)·sim` on the prefix.
    pub objective: f64,
    /// Whether the solver proved its assignment optimal.
    pub proven_optimal: bool,
    /// Wall-clock time spent in the solver.
    pub solver_time: Duration,
    /// Wall-clock time spent training the classifier.
    pub classifier_time: Duration,
    /// Training accuracy of the classifier on the prefix `(features, bucket)`
    /// pairs (how reproducible the learned scheme is from features alone).
    pub classifier_train_accuracy: f64,
    /// Total training wall-clock time (solver + classifier + bookkeeping).
    pub total_time: Duration,
}

impl EstimatorStats {
    /// Estimation error per stored element — the scale used by the paper's
    /// Figures 3–6.
    pub fn estimation_error_per_element(&self) -> f64 {
        if self.stored_elements == 0 {
            0.0
        } else {
            self.estimation_error / self.stored_elements as f64
        }
    }
}

/// A conservation ledger for stream mass flowing through an ingestion
/// boundary: every unit offered must be **accepted**, **rejected**, or
/// **degraded** (admitted in a reduced-service mode), and nothing else.
///
/// The ledger is unit-agnostic — the engine keeps one ledger counting
/// arrivals and one counting weighted count mass — and is the primitive the
/// ingest engine's overload invariants are asserted against: under any
/// backpressure policy, [`MassLedger::conserved`] must hold at every point
/// in time, so no arrival can ever be dropped silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MassLedger {
    /// Units presented at the boundary (the sum of the three buckets).
    pub offered: u64,
    /// Units admitted under normal operation.
    pub accepted: u64,
    /// Units refused with an explicit, typed error.
    pub rejected: u64,
    /// Units admitted in a degraded mode (e.g. aggregate-only buffering
    /// under overload) — still fully counted, never lost.
    pub degraded: u64,
}

impl MassLedger {
    /// Records `units` offered and accepted.
    #[inline]
    pub fn accept(&mut self, units: u64) {
        self.offered += units;
        self.accepted += units;
    }

    /// Records `units` offered and explicitly rejected.
    #[inline]
    pub fn reject(&mut self, units: u64) {
        self.offered += units;
        self.rejected += units;
    }

    /// Records `units` offered and admitted in degraded mode.
    #[inline]
    pub fn degrade(&mut self, units: u64) {
        self.offered += units;
        self.degraded += units;
    }

    /// Units that made it into the system (accepted + degraded).
    #[inline]
    pub fn admitted(&self) -> u64 {
        self.accepted + self.degraded
    }

    /// The conservation invariant: every offered unit is accounted for in
    /// exactly one bucket.
    #[inline]
    pub fn conserved(&self) -> bool {
        self.offered == self.accepted + self.rejected + self.degraded
    }

    /// Folds another ledger into this one (e.g. summing per-shard ledgers).
    pub fn absorb(&mut self, other: &MassLedger) {
        self.offered += other.offered;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.degraded += other.degraded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mass_ledger_conserves_by_construction() {
        let mut ledger = MassLedger::default();
        assert!(ledger.conserved());
        ledger.accept(10);
        ledger.reject(3);
        ledger.degrade(5);
        assert!(ledger.conserved());
        assert_eq!(ledger.offered, 18);
        assert_eq!(ledger.admitted(), 15);

        let mut total = MassLedger::default();
        total.absorb(&ledger);
        total.absorb(&ledger);
        assert!(total.conserved());
        assert_eq!(total.offered, 36);

        // A hand-built ledger that lost mass must be caught.
        let broken = MassLedger {
            offered: 10,
            accepted: 6,
            rejected: 1,
            degraded: 2,
        };
        assert!(!broken.conserved());
    }

    #[test]
    fn per_element_scale_handles_zero_elements() {
        let stats = EstimatorStats {
            solver: "bcd".into(),
            classifier: "cart".into(),
            stored_elements: 0,
            buckets: 4,
            estimation_error: 10.0,
            similarity_error: 0.0,
            objective: 10.0,
            proven_optimal: false,
            solver_time: Duration::from_millis(1),
            classifier_time: Duration::from_millis(1),
            classifier_train_accuracy: 1.0,
            total_time: Duration::from_millis(2),
        };
        assert_eq!(stats.estimation_error_per_element(), 0.0);
        let with_elements = EstimatorStats {
            stored_elements: 5,
            ..stats
        };
        assert_eq!(with_elements.estimation_error_per_element(), 2.0);
    }
}
