//! Evaluation metrics.
//!
//! Two families of metrics appear in the paper:
//!
//! * **Stream-level estimation quality** (Section 7.4): the *average
//!   per-element absolute error* `1/|U_t| Σ |f_u − f̃_u|` and the *expected
//!   magnitude of the absolute error* `1/Σf_u Σ f_u·|f_u − f̃_u|`. These are
//!   computed by [`ErrorMetrics`] over any set of query elements.
//! * **Prefix objective terms** (Section 4.1): the *estimation error*
//!   `Σ_j Σ_{i∈I_j} |f⁰_i − μ_j|` and the *similarity error*
//!   `Σ_j Σ_{(i,k)∈I_j×I_j} ‖x_i − x_k‖₂` of a bucket assignment, plus their
//!   λ-weighted combination. These are computed by [`assignment_errors`] and
//!   are exactly the quantities plotted in Figures 2–6.

use crate::element::Features;

/// Aggregate error of an estimator over a set of query elements.
///
/// Build it incrementally with [`ErrorMetrics::observe`] (one call per
/// queried element with its true and estimated frequency) and read the two
/// paper metrics from [`ErrorMetrics::average_absolute_error`] and
/// [`ErrorMetrics::expected_absolute_error`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ErrorMetrics {
    /// Number of observed (queried) elements.
    pub count: usize,
    /// Sum of absolute errors `Σ |f_u − f̃_u|`.
    pub sum_absolute_error: f64,
    /// Frequency-weighted sum of absolute errors `Σ f_u·|f_u − f̃_u|`.
    pub sum_weighted_error: f64,
    /// Sum of true frequencies `Σ f_u`.
    pub sum_true_frequency: f64,
    /// Sum of squared errors (not a paper metric; handy for variance checks).
    pub sum_squared_error: f64,
    /// Largest single absolute error observed.
    pub max_absolute_error: f64,
}

impl ErrorMetrics {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one queried element with true frequency `true_f` and estimate
    /// `estimated_f`.
    pub fn observe(&mut self, true_f: f64, estimated_f: f64) {
        let err = (true_f - estimated_f).abs();
        self.count += 1;
        self.sum_absolute_error += err;
        self.sum_weighted_error += true_f * err;
        self.sum_true_frequency += true_f;
        self.sum_squared_error += err * err;
        if err > self.max_absolute_error {
            self.max_absolute_error = err;
        }
    }

    /// Convenience constructor from parallel slices of true and estimated
    /// frequencies.
    pub fn from_slices(true_f: &[f64], estimated_f: &[f64]) -> Self {
        assert_eq!(
            true_f.len(),
            estimated_f.len(),
            "true and estimated frequency slices must have equal length"
        );
        let mut m = Self::new();
        for (&t, &e) in true_f.iter().zip(estimated_f) {
            m.observe(t, e);
        }
        m
    }

    /// Average per-element absolute error `1/|U| Σ |f_u − f̃_u|`
    /// (left column of Figures 7–8). Zero for an empty accumulator.
    pub fn average_absolute_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_absolute_error / self.count as f64
        }
    }

    /// Expected magnitude of the absolute error
    /// `1/Σf_u Σ f_u·|f_u − f̃_u|` (right column of Figures 7–8). Zero when no
    /// frequency mass has been observed.
    pub fn expected_absolute_error(&self) -> f64 {
        if self.sum_true_frequency == 0.0 {
            0.0
        } else {
            self.sum_weighted_error / self.sum_true_frequency
        }
    }

    /// Root mean squared error (supporting metric, not in the paper).
    pub fn rmse(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum_squared_error / self.count as f64).sqrt()
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &ErrorMetrics) {
        self.count += other.count;
        self.sum_absolute_error += other.sum_absolute_error;
        self.sum_weighted_error += other.sum_weighted_error;
        self.sum_true_frequency += other.sum_true_frequency;
        self.sum_squared_error += other.sum_squared_error;
        self.max_absolute_error = self.max_absolute_error.max(other.max_absolute_error);
    }
}

/// The two objective terms of Problem (1) evaluated on a concrete bucket
/// assignment, plus their λ-weighted combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssignmentErrors {
    /// `Σ_j Σ_{i∈I_j} |f⁰_i − μ_j|` — the estimation error term.
    pub estimation_error: f64,
    /// `Σ_j Σ_{(i,k)∈I_j×I_j, i≠k} ‖x_i − x_k‖₂` — the similarity error term.
    ///
    /// Following Algorithm 1 of the paper the sum ranges over ordered pairs,
    /// so each unordered pair contributes twice.
    pub similarity_error: f64,
    /// The λ used to combine the two terms.
    pub lambda: f64,
}

impl AssignmentErrors {
    /// `λ·estimation + (1−λ)·similarity` — the objective of Problem (1).
    pub fn overall_error(&self) -> f64 {
        self.lambda * self.estimation_error + (1.0 - self.lambda) * self.similarity_error
    }

    /// Per-element estimation error (the scale used from Experiment 2 on).
    pub fn estimation_error_per_element(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.estimation_error / n as f64
        }
    }

    /// Per-ordered-pair similarity error (the scale used from Experiment 2
    /// on). `pairs` should be the number of ordered co-bucketed pairs; when 0
    /// the error is 0 by convention.
    pub fn similarity_error_per_pair(&self, pairs: usize) -> f64 {
        if pairs == 0 {
            0.0
        } else {
            self.similarity_error / pairs as f64
        }
    }
}

/// Evaluates the Problem (1) objective terms for an assignment of `n`
/// elements to buckets.
///
/// * `frequencies[i]` is `f⁰_i`,
/// * `features[i]` is `x_i` (pass an empty slice or empty features when
///   `lambda == 1.0`; the similarity term is then 0),
/// * `assignment[i] ∈ [0, buckets)` is the bucket of element `i`.
///
/// Returns the estimation error, similarity error and λ so callers can also
/// inspect the per-term values, exactly as the synthetic experiments report
/// them.
///
/// # Panics
/// Panics if the slice lengths disagree or an assignment index is out of
/// range.
pub fn assignment_errors(
    frequencies: &[f64],
    features: &[Features],
    assignment: &[usize],
    buckets: usize,
    lambda: f64,
) -> AssignmentErrors {
    assert_eq!(
        frequencies.len(),
        assignment.len(),
        "frequencies and assignment must align"
    );
    if !features.is_empty() {
        assert_eq!(
            features.len(),
            assignment.len(),
            "features and assignment must align"
        );
    }
    let n = frequencies.len();
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); buckets];
    for (i, &j) in assignment.iter().enumerate() {
        assert!(
            j < buckets,
            "assignment[{i}] = {j} out of range ({buckets} buckets)"
        );
        members[j].push(i);
    }

    let mut estimation_error = 0.0;
    let mut similarity_error = 0.0;
    for bucket in &members {
        if bucket.is_empty() {
            continue;
        }
        let mean: f64 = bucket.iter().map(|&i| frequencies[i]).sum::<f64>() / bucket.len() as f64;
        for &i in bucket {
            estimation_error += (frequencies[i] - mean).abs();
        }
        if lambda < 1.0 && !features.is_empty() {
            for (a, &i) in bucket.iter().enumerate() {
                for &k in bucket.iter().skip(a + 1) {
                    // ordered pairs: count each unordered pair twice
                    similarity_error += 2.0 * features[i].l2_distance(&features[k]);
                }
            }
        }
    }
    let _ = n;
    AssignmentErrors {
        estimation_error,
        similarity_error,
        lambda,
    }
}

/// Number of ordered co-bucketed pairs `(i, k), i ≠ k` induced by an
/// assignment — the normalizer for the per-pair similarity error scale.
pub fn ordered_cobucket_pairs(assignment: &[usize], buckets: usize) -> usize {
    let mut sizes = vec![0usize; buckets];
    for &j in assignment {
        sizes[j] += 1;
    }
    sizes.iter().map(|&c| c * c.saturating_sub(1)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_and_expected_errors_match_hand_computation() {
        let mut m = ErrorMetrics::new();
        m.observe(10.0, 12.0); // err 2
        m.observe(100.0, 90.0); // err 10
        m.observe(1.0, 1.0); // err 0
        assert!((m.average_absolute_error() - 4.0).abs() < 1e-12);
        // expected = (10*2 + 100*10 + 1*0) / 111 = 1020/111
        assert!((m.expected_absolute_error() - 1020.0 / 111.0).abs() < 1e-12);
        assert_eq!(m.count, 3);
        assert_eq!(m.max_absolute_error, 10.0);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = ErrorMetrics::new();
        assert_eq!(m.average_absolute_error(), 0.0);
        assert_eq!(m.expected_absolute_error(), 0.0);
        assert_eq!(m.rmse(), 0.0);
    }

    #[test]
    fn merge_is_equivalent_to_observing_everything() {
        let mut a = ErrorMetrics::new();
        a.observe(5.0, 7.0);
        let mut b = ErrorMetrics::new();
        b.observe(3.0, 1.0);
        b.observe(8.0, 8.0);
        let mut merged = a;
        merged.merge(&b);
        let mut all = ErrorMetrics::new();
        all.observe(5.0, 7.0);
        all.observe(3.0, 1.0);
        all.observe(8.0, 8.0);
        assert_eq!(merged, all);
    }

    #[test]
    fn from_slices_matches_observe() {
        let m = ErrorMetrics::from_slices(&[1.0, 2.0], &[2.0, 2.0]);
        assert_eq!(m.count, 2);
        assert!((m.average_absolute_error() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn from_slices_panics_on_mismatch() {
        let _ = ErrorMetrics::from_slices(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn assignment_errors_single_bucket() {
        // all in one bucket: mean 2, estimation error |1-2|+|2-2|+|3-2| = 2
        let freqs = [1.0, 2.0, 3.0];
        let feats = vec![
            Features::new(vec![0.0]),
            Features::new(vec![0.0]),
            Features::new(vec![1.0]),
        ];
        let errs = assignment_errors(&freqs, &feats, &[0, 0, 0], 1, 0.5);
        assert!((errs.estimation_error - 2.0).abs() < 1e-12);
        // unordered distances: d(0,1)=0, d(0,2)=1, d(1,2)=1 => ordered sum = 4
        assert!((errs.similarity_error - 4.0).abs() < 1e-12);
        assert!((errs.overall_error() - (0.5 * 2.0 + 0.5 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn assignment_errors_perfect_split_is_zero() {
        let freqs = [5.0, 5.0, 9.0, 9.0];
        let errs = assignment_errors(&freqs, &[], &[0, 0, 1, 1], 2, 1.0);
        assert_eq!(errs.estimation_error, 0.0);
        assert_eq!(errs.similarity_error, 0.0);
        assert_eq!(errs.overall_error(), 0.0);
    }

    #[test]
    fn assignment_errors_ignores_empty_buckets() {
        let freqs = [1.0, 3.0];
        let errs = assignment_errors(&freqs, &[], &[2, 2], 4, 1.0);
        assert!((errs.estimation_error - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lambda_one_skips_similarity_even_with_features() {
        let freqs = [1.0, 3.0];
        let feats = vec![Features::new(vec![0.0]), Features::new(vec![10.0])];
        let errs = assignment_errors(&freqs, &feats, &[0, 0], 1, 1.0);
        assert_eq!(errs.similarity_error, 0.0);
        assert!((errs.overall_error() - errs.estimation_error).abs() < 1e-12);
    }

    #[test]
    fn ordered_pair_count() {
        // bucket sizes 3 and 1 -> 3*2 + 0 = 6 ordered pairs
        assert_eq!(ordered_cobucket_pairs(&[0, 0, 0, 1], 2), 6);
        assert_eq!(ordered_cobucket_pairs(&[], 3), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn assignment_errors_panics_on_bad_bucket() {
        let _ = assignment_errors(&[1.0], &[], &[3], 2, 1.0);
    }

    #[test]
    fn per_element_and_per_pair_scales() {
        let errs = AssignmentErrors {
            estimation_error: 10.0,
            similarity_error: 12.0,
            lambda: 0.5,
        };
        assert!((errs.estimation_error_per_element(5) - 2.0).abs() < 1e-12);
        assert!((errs.similarity_error_per_pair(6) - 2.0).abs() < 1e-12);
        assert_eq!(errs.estimation_error_per_element(0), 0.0);
        assert_eq!(errs.similarity_error_per_pair(0), 0.0);
    }
}
