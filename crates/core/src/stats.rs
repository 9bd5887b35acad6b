//! Training-time statistics reported by the estimators.

use std::time::Duration;

/// Summary of how an `opt-hash` estimator was trained — the quantities the
/// paper's synthetic experiments report (objective terms, timings) plus a few
/// sanity metrics.
#[derive(Debug, Clone, PartialEq)]
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

#[cfg(test)]
mod tests {
    use super::*;

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
