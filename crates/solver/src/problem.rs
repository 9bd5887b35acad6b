//! Problem and solution types shared by all solvers.

use opthash_stream::{assignment_errors, AssignmentErrors, Features};
use std::time::Duration;

/// An instance of the optimal-hashing problem (Problem (1) of the paper).
///
/// * `frequencies[i]` — the observed prefix frequency `f⁰_i` of element `i`,
/// * `features[i]` — the feature vector `x_i` (may be empty when `λ = 1`),
/// * `buckets` — the number of buckets `b`,
/// * `lambda` — the weight trading off estimation vs. similarity error.
#[derive(Debug, Clone)]
pub struct HashingProblem {
    /// Observed prefix frequencies `f⁰`, one entry per element.
    pub frequencies: Vec<f64>,
    /// Feature vectors aligned with `frequencies`; may be empty when only the
    /// estimation error matters (`λ = 1`).
    pub features: Vec<Features>,
    /// Number of buckets `b`.
    pub buckets: usize,
    /// Trade-off weight `λ ∈ [0, 1]`.
    pub lambda: f64,
}

impl HashingProblem {
    /// Creates a problem instance, validating its shape.
    ///
    /// # Panics
    /// Panics if `buckets == 0`, `lambda ∉ [0, 1]`, any frequency is negative
    /// or non-finite, or `features` is non-empty but misaligned with
    /// `frequencies`.
    pub fn new(
        frequencies: Vec<f64>,
        features: Vec<Features>,
        buckets: usize,
        lambda: f64,
    ) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        assert!(
            (0.0..=1.0).contains(&lambda),
            "lambda must lie in [0, 1], got {lambda}"
        );
        assert!(
            frequencies.iter().all(|f| f.is_finite() && *f >= 0.0),
            "frequencies must be finite and non-negative"
        );
        if !features.is_empty() {
            assert_eq!(
                features.len(),
                frequencies.len(),
                "features must align with frequencies"
            );
        }
        HashingProblem {
            frequencies,
            features,
            buckets,
            lambda,
        }
    }

    /// A pure estimation-error instance (`λ = 1`, no features).
    pub fn frequency_only(frequencies: Vec<f64>, buckets: usize) -> Self {
        Self::new(frequencies, Vec::new(), buckets, 1.0)
    }

    /// Number of elements `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.frequencies.len()
    }

    /// Returns `true` if there are no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.frequencies.is_empty()
    }

    /// `true` when the similarity term is active (`λ < 1` and features are
    /// present).
    pub fn uses_features(&self) -> bool {
        self.lambda < 1.0 && !self.features.is_empty()
    }

    /// Evaluates the two objective terms of an assignment.
    pub fn evaluate(&self, assignment: &[usize]) -> AssignmentErrors {
        assignment_errors(
            &self.frequencies,
            if self.uses_features() {
                &self.features
            } else {
                &[]
            },
            assignment,
            self.buckets,
            self.lambda,
        )
    }

    /// Evaluates the scalar objective of an assignment.
    pub fn objective(&self, assignment: &[usize]) -> f64 {
        self.evaluate(assignment).overall_error()
    }

    /// Wraps an assignment into a [`HashingSolution`], computing its errors.
    pub fn solution_from_assignment(
        &self,
        assignment: Vec<usize>,
        stats: SolverStats,
    ) -> HashingSolution {
        assert_eq!(assignment.len(), self.len(), "assignment length mismatch");
        let errors = self.evaluate(&assignment);
        HashingSolution {
            assignment,
            buckets: self.buckets,
            lambda: self.lambda,
            estimation_error: errors.estimation_error,
            similarity_error: errors.similarity_error,
            objective: errors.overall_error(),
            stats,
        }
    }
}

/// Execution statistics attached to a solution.
///
/// Iterative solvers (BCD) additionally report the objective trajectory of
/// the winning restart so callers can see *how* the solve converged — the
/// warm-start machinery uses this to prove that re-solving a perturbed
/// problem from the incumbent assignment converges faster than from scratch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverStats {
    /// Wall-clock time spent solving.
    pub elapsed: Duration,
    /// Iterations (BCD sweeps, B&B nodes, or DP table cells depending on the
    /// solver).
    pub iterations: usize,
    /// Whether the solver proved optimality of the returned assignment.
    pub proven_optimal: bool,
    /// Number of restarts performed (multi-start BCD).
    pub restarts: usize,
    /// Objective of the initial assignment of the restart that produced the
    /// returned solution (equals `cost_trajectory[0]` when the trajectory is
    /// recorded; `0.0` for non-iterative solvers).
    pub initial_objective: f64,
    /// Objective after the initial assignment and after every subsequent
    /// sweep of the winning restart. Empty for non-iterative solvers.
    pub cost_trajectory: Vec<f64>,
    /// Whether the solve was warm-started from a caller-provided assignment
    /// (e.g. the incumbent scheme during online re-training).
    pub warm_started: bool,
    /// Candidate moves (BCD), DP cells, or enumeration nodes evaluated —
    /// the cheap always-on work counter every solver maintains.
    pub moves_evaluated: u64,
    /// Restarts cut short by the EMA stagnation check (multi-start BCD);
    /// their leftover sweep budget is reallocated to the incumbent.
    pub restarts_aborted: usize,
    /// Wall-clock time from the start of the solve until the returned
    /// solution was first discovered (≤ `elapsed`; the tail is spent proving
    /// nothing better exists or letting other restarts/racers finish).
    pub time_to_best: Duration,
}

/// A learned hashing scheme: the assignment `Z` of Problem (1) in dense form
/// (`assignment[i]` is the bucket of element `i`) plus its objective terms.
#[derive(Debug, Clone)]
pub struct HashingSolution {
    /// Bucket index of each element.
    pub assignment: Vec<usize>,
    /// Number of buckets the assignment targets.
    pub buckets: usize,
    /// The λ the problem was solved with.
    pub lambda: f64,
    /// Estimation error term of the objective.
    pub estimation_error: f64,
    /// Similarity error term of the objective.
    pub similarity_error: f64,
    /// Overall objective `λ·est + (1−λ)·sim`.
    pub objective: f64,
    /// Execution statistics.
    pub stats: SolverStats,
}

impl HashingSolution {
    /// Number of non-empty buckets.
    pub fn used_buckets(&self) -> usize {
        let mut used = vec![false; self.buckets];
        for &j in &self.assignment {
            used[j] = true;
        }
        used.iter().filter(|&&u| u).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_problem() -> HashingProblem {
        HashingProblem::new(
            vec![1.0, 2.0, 10.0, 11.0],
            vec![
                Features::new(vec![0.0]),
                Features::new(vec![0.1]),
                Features::new(vec![5.0]),
                Features::new(vec![5.1]),
            ],
            2,
            0.5,
        )
    }

    #[test]
    fn objective_matches_manual_computation() {
        let p = small_problem();
        // buckets {0,1} and {2,3}: est err = (0.5+0.5)+(0.5+0.5) = 2
        // sim err = 2*0.1 + 2*0.1 = 0.4 ; objective = 0.5*2 + 0.5*0.4 = 1.2
        let obj = p.objective(&[0, 0, 1, 1]);
        assert!((obj - 1.2).abs() < 1e-9, "objective {obj}");
    }

    #[test]
    fn frequency_only_ignores_similarity() {
        let p = HashingProblem::frequency_only(vec![1.0, 5.0, 9.0], 2);
        assert!(!p.uses_features());
        let errs = p.evaluate(&[0, 0, 1]);
        assert_eq!(errs.similarity_error, 0.0);
        assert!((errs.estimation_error - 4.0).abs() < 1e-12);
    }

    #[test]
    fn solution_records_errors_and_used_buckets() {
        let p = small_problem();
        let sol = p.solution_from_assignment(vec![0, 0, 1, 1], SolverStats::default());
        assert!((sol.objective - 1.2).abs() < 1e-9);
        assert!((sol.estimation_error - 2.0).abs() < 1e-12);
        assert_eq!(sol.used_buckets(), 2);

        // Empty buckets are not counted.
        let p = HashingProblem::frequency_only(vec![3.0, 3.0], 4);
        let sol = p.solution_from_assignment(vec![2, 2], SolverStats::default());
        assert_eq!(sol.used_buckets(), 1);
    }

    #[test]
    #[should_panic(expected = "lambda must lie in [0, 1]")]
    fn invalid_lambda_panics() {
        let _ = HashingProblem::new(vec![1.0], vec![], 1, 1.5);
    }

    #[test]
    #[should_panic(expected = "need at least one bucket")]
    fn zero_buckets_panics() {
        let _ = HashingProblem::frequency_only(vec![1.0], 0);
    }

    #[test]
    #[should_panic(expected = "features must align")]
    fn misaligned_features_panic() {
        let _ = HashingProblem::new(vec![1.0, 2.0], vec![Features::new(vec![1.0])], 2, 0.5);
    }

    #[test]
    #[should_panic(expected = "assignment length mismatch")]
    fn wrong_assignment_length_panics() {
        let p = HashingProblem::frequency_only(vec![1.0, 2.0], 2);
        let _ = p.solution_from_assignment(vec![0], SolverStats::default());
    }
}
