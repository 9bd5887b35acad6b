//! The static `opt-hash` estimator (Sections 3, 4, 5.1–5.2).

use crate::config::{OptHashConfig, SolverKind};
use crate::stats::EstimatorStats;
use opthash_ml::{Classifier, Dataset, TrainedClassifier};
use opthash_solver::{kmedian, BcdSolver, ExactSolver, HashingProblem, HashingSolution};
use opthash_stream::{
    ElementId, Features, FrequencyEstimator, SpaceReport, StreamElement, StreamPrefix,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The learned-hashing frequency estimator.
///
/// Build one with [`crate::OptHashBuilder`] or [`OptHash::train`]; feed
/// arrivals with [`FrequencyEstimator::update`]; answer point queries with
/// [`FrequencyEstimator::estimate`].
///
/// Only the `b` bucket counters `φ_j` change after training. The learned
/// part (hash table, classifier, solved assignment) sits behind one `Arc`,
/// so a clone or a fork copies just the counters.
#[derive(Debug, Clone)]
pub struct OptHash {
    /// The read-only learned scheme, shared by every clone and fork.
    scheme: Arc<Scheme>,
    /// Aggregate frequency `φ_j` per bucket.
    bucket_counts: Vec<f64>,
}

/// The part of an [`OptHash`] fixed at training time.
#[derive(Debug)]
struct Scheme {
    config: OptHashConfig,
    /// Learned hash table: bucket of every stored prefix element.
    table: HashMap<ElementId, usize>,
    /// Number of stored elements `c_j` per bucket.
    bucket_elements: Vec<usize>,
    /// Classifier routing unseen elements to buckets.
    classifier: TrainedClassifier,
    /// The solved prefix assignment (kept for inspection and experiments).
    solution: HashingSolution,
    /// Training statistics.
    stats: EstimatorStats,
}

impl OptHash {
    /// Learns the hashing scheme and the classifier from an observed prefix.
    pub fn train(config: OptHashConfig, prefix: &StreamPrefix) -> Self {
        Self::build(config, prefix, None)
    }

    /// Re-learns the scheme on a refreshed prefix (typically the sliding
    /// window of recent arrivals maintained by the engine's re-trainer),
    /// keeping this estimator's configuration. When the solver is BCD with
    /// [`opthash_solver::BcdConfig::warm_start`] set, restart 0 descends from
    /// this estimator's incumbent assignment mapped onto the new prefix —
    /// stored elements keep their bucket, new elements start in the bucket
    /// whose current average is nearest their observed frequency — which is
    /// what makes successive closely-related solves cheap. A frequency-only
    /// prefix with no more distinct counts than buckets skips the descent
    /// (the equal-count shortcut is exact there), so its solution is
    /// `proven_optimal` rather than `warm_started`. The classifier is
    /// retrained on the refreshed assignment, so routing of unseen elements
    /// tracks the new scheme too.
    pub fn retrain(&self, prefix: &StreamPrefix) -> Self {
        Self::build(self.scheme.config, prefix, Some(self))
    }

    /// Maps this estimator's incumbent assignment onto a (possibly new)
    /// prefix: stored elements reuse their learned bucket, unseen elements
    /// get the bucket whose current average frequency is closest to their
    /// observed prefix frequency.
    fn warm_assignment(&self, prefix: &StreamPrefix) -> Vec<usize> {
        let buckets = self.scheme.config.buckets;
        prefix
            .elements()
            .iter()
            .enumerate()
            .map(|(i, element)| match self.scheme.table.get(&element.id) {
                Some(&bucket) => bucket.min(buckets - 1),
                None => {
                    let frequency = prefix.frequencies()[i] as f64;
                    (0..buckets)
                        .min_by(|&a, &b| {
                            let da = (self.bucket_average(a) - frequency).abs();
                            let db = (self.bucket_average(b) - frequency).abs();
                            da.partial_cmp(&db).unwrap()
                        })
                        .unwrap_or(0)
                }
            })
            .collect()
    }

    fn build(config: OptHashConfig, prefix: &StreamPrefix, incumbent: Option<&OptHash>) -> Self {
        config.validate();
        assert!(prefix.distinct_len() > 0, "cannot train on an empty prefix");
        let total_start = Instant::now();

        // Optionally down-sample the prefix, keeping heavy elements with
        // higher probability (Section 7.3).
        let sampled;
        let prefix = match config.max_stored_elements {
            Some(max) if prefix.distinct_len() > max => {
                sampled = prefix.sample_by_frequency(max, config.seed);
                &sampled
            }
            _ => prefix,
        };

        // Build and solve the assignment problem.
        let frequencies = prefix.frequencies_f64();
        let features = prefix.features();
        let use_features = config.lambda < 1.0 && features.iter().any(|f| !f.is_empty());
        let problem = HashingProblem::new(
            frequencies,
            if use_features {
                features.clone()
            } else {
                Vec::new()
            },
            config.buckets,
            config.lambda,
        );
        // Whatever the configured solver, a frequency-only problem with no
        // more distinct counts than buckets has optimum 0, found by one sort.
        let solver_start = Instant::now();
        let solution = match kmedian::solve_equal_counts(&problem) {
            Some(solution) => solution,
            None => match config.solver {
                SolverKind::Bcd(bcd_config) => {
                    let solver = BcdSolver::new(bcd_config);
                    match incumbent.filter(|_| bcd_config.warm_start) {
                        Some(previous) => {
                            solver.solve_from(&problem, &previous.warm_assignment(prefix))
                        }
                        None => solver.solve(&problem),
                    }
                }
                SolverKind::Dp => kmedian::solve_frequency_only(&problem),
                SolverKind::Exact(exact_config) => ExactSolver::new(exact_config).solve(&problem),
            },
        };
        let solver_time = solver_start.elapsed();

        // Materialize the hash table and bucket statistics. The prefix
        // frequencies seed the bucket counters, so estimates cover the whole
        // stream including the prefix period (the real-world experiments
        // aggregate from day 0).
        let mut table = HashMap::with_capacity(prefix.distinct_len());
        let mut bucket_counts = vec![0.0f64; config.buckets];
        let mut bucket_elements = vec![0usize; config.buckets];
        for (i, element) in prefix.elements().iter().enumerate() {
            let bucket = solution.assignment[i];
            table.insert(element.id, bucket);
            bucket_elements[bucket] += 1;
            bucket_counts[bucket] += prefix.frequencies()[i] as f64;
        }

        // Train the classifier on (features, bucket) pairs.
        let classifier_start = Instant::now();
        let labels: Vec<usize> = solution.assignment.clone();
        let dataset = Dataset::from_features(&features, &labels).with_num_classes(config.buckets);
        let classifier = config.classifier.fit(&dataset, config.seed);
        let classifier_time = classifier_start.elapsed();
        let classifier_train_accuracy = classifier.accuracy(&dataset);

        let stats = EstimatorStats {
            solver: config.solver.name().to_owned(),
            classifier: config.classifier.name().to_owned(),
            stored_elements: prefix.distinct_len(),
            buckets: config.buckets,
            estimation_error: solution.estimation_error,
            similarity_error: solution.similarity_error,
            objective: solution.objective,
            proven_optimal: solution.stats.proven_optimal,
            solver_time,
            classifier_time,
            classifier_train_accuracy,
            total_time: total_start.elapsed(),
        };

        OptHash {
            scheme: Arc::new(Scheme {
                config,
                table,
                bucket_elements,
                classifier,
                solution,
                stats,
            }),
            bucket_counts,
        }
    }

    /// The configuration the estimator was trained with.
    pub fn config(&self) -> &OptHashConfig {
        &self.scheme.config
    }

    /// Training statistics.
    pub fn stats(&self) -> &EstimatorStats {
        &self.scheme.stats
    }

    /// The solved prefix assignment.
    pub fn solution(&self) -> &HashingSolution {
        &self.scheme.solution
    }

    /// Number of stored prefix-element IDs.
    pub fn stored_elements(&self) -> usize {
        self.scheme.table.len()
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.scheme.config.buckets
    }

    /// The bucket an element would be routed to: the learned hash table for
    /// prefix elements, the classifier for everything else (Section 5).
    pub fn bucket_of(&self, element: &StreamElement) -> usize {
        match self.scheme.table.get(&element.id) {
            Some(&bucket) => bucket,
            None => self.predict_bucket(&element.features),
        }
    }

    /// The bucket the classifier alone would pick for a feature vector.
    pub fn predict_bucket(&self, features: &Features) -> usize {
        let bucket = self.scheme.classifier.predict(features.as_slice());
        bucket.min(self.scheme.config.buckets - 1)
    }

    /// Returns `true` if the element's ID was stored from the prefix.
    pub fn is_stored(&self, id: ElementId) -> bool {
        self.scheme.table.contains_key(&id)
    }

    /// Current average frequency of a bucket (`φ_j / c_j`), the value every
    /// query in that bucket receives.
    pub fn bucket_average(&self, bucket: usize) -> f64 {
        let elements = self.scheme.bucket_elements[bucket];
        if elements == 0 {
            0.0
        } else {
            self.bucket_counts[bucket] / elements as f64
        }
    }

    /// Aggregate counter `φ_j` of a bucket.
    pub fn bucket_count(&self, bucket: usize) -> f64 {
        self.bucket_counts[bucket]
    }

    /// Number of stored elements `c_j` of a bucket.
    pub fn bucket_element_count(&self, bucket: usize) -> usize {
        self.scheme.bucket_elements[bucket]
    }

    /// Adds `count` occurrences of an element (only tracked if the element
    /// was stored from the prefix — the static scheme ignores unseen
    /// arrivals, see [`crate::AdaptiveOptHash`] for the tracking variant).
    pub fn add(&mut self, element: &StreamElement, count: u64) {
        if count == 0 {
            return;
        }
        if let Some(&bucket) = self.scheme.table.get(&element.id) {
            self.bucket_counts[bucket] += count as f64;
        }
    }

    /// Creates an estimator sharing this one's learned structure (hash
    /// table, classifier, bucket element counts) but with every aggregate
    /// bucket counter `φ_j` zeroed. The fork accumulates only the *delta*
    /// of the arrivals routed to it, so several forks fed disjoint
    /// sub-streams can be [`OptHash::merge_counts`]-ed back into the
    /// original for an exact result. `O(buckets)`: the fork shares the
    /// learned scheme rather than copying it.
    pub fn fork_empty(&self) -> Self {
        OptHash {
            scheme: Arc::clone(&self.scheme),
            bucket_counts: vec![0.0; self.bucket_counts.len()],
        }
    }

    /// Adds another estimator's aggregate bucket counters `φ_j` into this
    /// one. Counter updates are additive, so merging forks fed disjoint
    /// sub-streams reproduces exactly the counters of sequential
    /// processing. `O(buckets)`.
    ///
    /// # Panics
    ///
    /// Panics if the two estimators have different bucket counts or stored
    /// tables (they must come from the same training run).
    pub fn merge_counts(&mut self, other: &OptHash) {
        assert!(
            self.bucket_counts.len() == other.bucket_counts.len()
                && self.scheme.table.len() == other.scheme.table.len(),
            "can only merge opt-hash estimators from the same training run"
        );
        for (c, &o) in self.bucket_counts.iter_mut().zip(&other.bucket_counts) {
            *c += o;
        }
    }

    /// Itemized memory usage: one stored ID per prefix element plus one
    /// counter per bucket (the per-bucket element counts are derivable from
    /// the hash table, so they are charged as auxiliary bytes only when the
    /// table is dropped — which the static estimator never does).
    pub fn space_report(&self) -> SpaceReport {
        SpaceReport {
            counters: self.scheme.config.buckets,
            stored_ids: self.scheme.table.len(),
            ..SpaceReport::default()
        }
    }
}

impl FrequencyEstimator for OptHash {
    fn update(&mut self, element: &StreamElement) {
        self.add(element, 1);
    }

    fn estimate(&self, element: &StreamElement) -> f64 {
        self.bucket_average(self.bucket_of(element))
    }

    fn space_bytes(&self) -> usize {
        self.space_report().total_bytes()
    }

    fn name(&self) -> &'static str {
        "opt-hash"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptHashBuilder;
    use opthash_ml::ClassifierKind;
    use opthash_solver::BcdConfig;
    use opthash_stream::Stream;

    /// Prefix with two obvious frequency groups and aligned features.
    fn grouped_prefix() -> StreamPrefix {
        let mut arrivals = Vec::new();
        // hot elements 0 and 1 (features near 0)
        for _ in 0..30 {
            arrivals.push(StreamElement::new(0u64, vec![0.0, 0.1]));
            arrivals.push(StreamElement::new(1u64, vec![0.2, 0.0]));
        }
        // cold elements 2..6 (features near 10)
        for id in 2u64..7 {
            arrivals.push(StreamElement::new(id, vec![10.0 + id as f64 * 0.1, 10.0]));
        }
        StreamPrefix::from_stream(Stream::from_arrivals(arrivals))
    }

    #[test]
    fn seen_elements_get_bucket_average_estimates() {
        let est = OptHashBuilder::new(2)
            .lambda(1.0)
            .solver(SolverKind::Dp)
            .train(&grouped_prefix());
        // hot elements (freq 30) share a bucket; cold (freq 1) share the other
        let hot = est.estimate(&StreamElement::new(0u64, vec![0.0, 0.1]));
        let cold = est.estimate(&StreamElement::new(3u64, vec![10.3, 10.0]));
        assert!((hot - 30.0).abs() < 1e-9, "hot estimate {hot}");
        assert!((cold - 1.0).abs() < 1e-9, "cold estimate {cold}");
    }

    #[test]
    fn updates_move_bucket_averages() {
        let mut est = OptHashBuilder::new(2)
            .lambda(1.0)
            .solver(SolverKind::Dp)
            .train(&grouped_prefix());
        let hot_element = StreamElement::new(0u64, vec![0.0, 0.1]);
        let before = est.estimate(&hot_element);
        for _ in 0..10 {
            est.update(&hot_element);
        }
        let after = est.estimate(&hot_element);
        assert!(after > before);
        // 10 new arrivals spread over the 2 stored elements of the hot bucket
        assert!((after - (before + 5.0)).abs() < 1e-9);
    }

    #[test]
    fn unseen_elements_are_routed_by_the_classifier_to_similar_bucket() {
        let est = OptHashBuilder::new(2)
            .lambda(0.5)
            .classifier(ClassifierKind::Cart)
            .train(&grouped_prefix());
        // An unseen element with "cold-looking" features should get the cold
        // bucket's average, not the hot one's.
        let unseen_cold = StreamElement::new(99u64, vec![10.5, 9.9]);
        let unseen_hot = StreamElement::new(98u64, vec![0.1, 0.05]);
        assert!(!est.is_stored(ElementId(99)));
        let cold_estimate = est.estimate(&unseen_cold);
        let hot_estimate = est.estimate(&unseen_hot);
        assert!(
            hot_estimate > cold_estimate,
            "hot {hot_estimate} vs cold {cold_estimate}"
        );
    }

    #[test]
    fn static_estimator_ignores_unseen_arrivals() {
        let mut est = OptHashBuilder::new(2)
            .lambda(1.0)
            .solver(SolverKind::Dp)
            .train(&grouped_prefix());
        let totals_before: f64 = (0..est.buckets()).map(|j| est.bucket_count(j)).sum();
        est.update(&StreamElement::new(4242u64, vec![0.0, 0.0]));
        let totals_after: f64 = (0..est.buckets()).map(|j| est.bucket_count(j)).sum();
        assert_eq!(totals_before, totals_after);
    }

    #[test]
    fn max_stored_elements_caps_the_table() {
        let est = OptHashBuilder::new(2)
            .lambda(1.0)
            .solver(SolverKind::Dp)
            .max_stored_elements(3)
            .train(&grouped_prefix());
        assert!(est.stored_elements() <= 3);
        // the heaviest elements should survive frequency-proportional sampling
        assert!(est.is_stored(ElementId(0)) || est.is_stored(ElementId(1)));
    }

    #[test]
    fn space_accounting_counts_ids_and_buckets() {
        let est = OptHashBuilder::new(4)
            .lambda(1.0)
            .solver(SolverKind::Dp)
            .train(&grouped_prefix());
        let report = est.space_report();
        assert_eq!(report.stored_ids, 7);
        assert_eq!(report.counters, 4);
        assert_eq!(est.space_bytes(), 7 * 4 + 4 * 4);
        assert_eq!(est.name(), "opt-hash");
    }

    #[test]
    fn bucket_accessors_are_consistent() {
        let est = OptHashBuilder::new(3)
            .lambda(1.0)
            .solver(SolverKind::Dp)
            .train(&grouped_prefix());
        let mut total_elements = 0;
        for j in 0..est.buckets() {
            total_elements += est.bucket_element_count(j);
            if est.bucket_element_count(j) > 0 {
                assert!(
                    (est.bucket_average(j)
                        - est.bucket_count(j) / est.bucket_element_count(j) as f64)
                        .abs()
                        < 1e-12
                );
            } else {
                assert_eq!(est.bucket_average(j), 0.0);
            }
        }
        assert_eq!(total_elements, est.stored_elements());
    }

    #[test]
    fn frequency_mass_is_conserved_across_buckets() {
        let prefix = grouped_prefix();
        let est = OptHashBuilder::new(3)
            .lambda(1.0)
            .solver(SolverKind::Dp)
            .train(&prefix);
        let bucket_mass: f64 = (0..est.buckets()).map(|j| est.bucket_count(j)).sum();
        let prefix_mass: f64 = prefix.frequencies().iter().map(|&f| f as f64).sum();
        assert!((bucket_mass - prefix_mass).abs() < 1e-9);
    }

    #[test]
    fn bcd_and_exact_solvers_also_train() {
        let prefix = grouped_prefix();
        for solver in [
            SolverKind::Bcd(BcdConfig::default()),
            SolverKind::Exact(Default::default()),
        ] {
            let est = OptHashBuilder::new(2)
                .lambda(0.7)
                .solver(solver)
                .train(&prefix);
            assert_eq!(est.stats().solver, solver.name());
            let hot = est.estimate(&StreamElement::new(0u64, vec![0.0, 0.1]));
            let cold = est.estimate(&StreamElement::new(5u64, vec![10.5, 10.0]));
            assert!(hot > cold, "{}: hot {hot} cold {cold}", solver.name());
        }
    }

    #[test]
    fn stats_capture_objective_and_accuracy() {
        let est = OptHashBuilder::new(2)
            .lambda(1.0)
            .solver(SolverKind::Dp)
            .train(&grouped_prefix());
        let stats = est.stats();
        assert_eq!(stats.buckets, 2);
        assert_eq!(stats.stored_elements, 7);
        assert!(stats.classifier_train_accuracy > 0.5);
        assert!(stats.objective >= 0.0);
        assert!(stats.proven_optimal);
    }

    #[test]
    #[should_panic(expected = "empty prefix")]
    fn empty_prefix_panics() {
        let prefix = StreamPrefix::from_stream(Stream::new());
        let _ = OptHash::train(OptHashConfig::default(), &prefix);
    }

    #[test]
    fn forked_deltas_merge_back_to_sequential_counters() {
        let mut sequential = OptHashBuilder::new(2)
            .lambda(1.0)
            .solver(SolverKind::Dp)
            .train(&grouped_prefix());
        let mut merged = sequential.clone();
        let mut fork_a = merged.fork_empty();
        let mut fork_b = merged.fork_empty();

        // Forks start with zeroed aggregate counters but the same structure.
        for bucket in 0..fork_a.buckets() {
            assert_eq!(fork_a.bucket_count(bucket), 0.0);
            assert_eq!(
                fork_a.bucket_element_count(bucket),
                merged.bucket_element_count(bucket)
            );
        }

        // Partition a continuation by ID parity across the two forks.
        let arrivals: Vec<StreamElement> = (0..7u64)
            .cycle()
            .take(200)
            .map(|id| StreamElement::new(id, vec![0.0, 0.0]))
            .collect();
        for arrival in &arrivals {
            sequential.update(arrival);
            if arrival.id.raw() % 2 == 0 {
                fork_a.update(arrival);
            } else {
                fork_b.update(arrival);
            }
        }
        merged.merge_counts(&fork_a);
        merged.merge_counts(&fork_b);

        for bucket in 0..merged.buckets() {
            assert!(
                (merged.bucket_count(bucket) - sequential.bucket_count(bucket)).abs() < 1e-9,
                "bucket {bucket} diverged"
            );
        }
    }

    /// The grouped prefix after drift: element 5 is now hot, 0 stays warm,
    /// and an unseen element 9 has appeared cold.
    fn drifted_prefix() -> StreamPrefix {
        let mut arrivals = Vec::new();
        for _ in 0..40 {
            arrivals.push(StreamElement::new(5u64, vec![10.5, 10.0]));
        }
        for _ in 0..10 {
            arrivals.push(StreamElement::new(0u64, vec![0.0, 0.1]));
        }
        for id in [1u64, 2, 9] {
            arrivals.push(StreamElement::new(id, vec![10.0, 10.0]));
        }
        StreamPrefix::from_stream(Stream::from_arrivals(arrivals))
    }

    #[test]
    fn retrain_warm_starts_and_tracks_the_new_distribution() {
        let est = OptHashBuilder::new(2)
            .lambda(1.0)
            .solver(SolverKind::Bcd(BcdConfig::default().with_warm_start()))
            .train(&grouped_prefix());
        assert!(!est.solution().stats.warm_started, "initial train is cold");

        let retrained = est.retrain(&drifted_prefix());
        assert!(retrained.solution().stats.warm_started);
        assert_eq!(retrained.buckets(), est.buckets());
        // The new scheme's counters are seeded from the refreshed prefix, so
        // the now-hot element estimates high and newly-seen 9 is stored.
        let hot = retrained.estimate(&StreamElement::new(5u64, vec![10.5, 10.0]));
        let cold = retrained.estimate(&StreamElement::new(9u64, vec![10.0, 10.0]));
        assert!(hot > cold, "hot {hot} vs cold {cold}");
        assert!(retrained.is_stored(ElementId(9)));
        assert!(
            (hot - 40.0).abs() < 1e-9,
            "hot bucket isolates element 5: {hot}"
        );
    }

    #[test]
    fn retrain_without_warm_start_flag_stays_cold() {
        let est = OptHashBuilder::new(2)
            .lambda(1.0)
            .solver(SolverKind::Bcd(BcdConfig::default()))
            .train(&grouped_prefix());
        let retrained = est.retrain(&drifted_prefix());
        assert!(!retrained.solution().stats.warm_started);
    }

    #[test]
    fn add_with_zero_count_is_noop() {
        let mut est = OptHashBuilder::new(2)
            .lambda(1.0)
            .solver(SolverKind::Dp)
            .train(&grouped_prefix());
        let before = est.bucket_count(est.bucket_of(&StreamElement::new(0u64, vec![0.0, 0.1])));
        est.add(&StreamElement::new(0u64, vec![0.0, 0.1]), 0);
        let after = est.bucket_count(est.bucket_of(&StreamElement::new(0u64, vec![0.0, 0.1])));
        assert_eq!(before, after);
    }

    #[test]
    fn copies_share_one_scheme_and_own_their_counters() {
        let est = OptHashBuilder::new(2)
            .lambda(1.0)
            .solver(SolverKind::Dp)
            .train(&grouped_prefix());
        assert!(Arc::ptr_eq(&est.scheme, &est.clone().scheme));
        assert!(Arc::ptr_eq(&est.scheme, &est.fork_empty().scheme));
        assert!(
            !Arc::ptr_eq(&est.scheme, &est.retrain(&drifted_prefix()).scheme),
            "a retrain learns a new scheme"
        );

        let counts = |e: &OptHash| {
            (0..e.buckets())
                .map(|j| e.bucket_count(j))
                .collect::<Vec<_>>()
        };
        let before = counts(&est);
        let hot = StreamElement::new(0u64, vec![0.0, 0.1]);
        let mut copy = est.clone();
        copy.add(&hot, 7);
        assert_eq!(counts(&est), before, "the original's counters are its own");
        let bucket = est.bucket_of(&hot);
        assert_eq!(copy.bucket_count(bucket), est.bucket_count(bucket) + 7.0);
    }
}
