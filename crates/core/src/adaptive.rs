//! The adaptive counting extension (Section 5.3).
//!
//! The static [`crate::OptHash`] estimator only tracks the frequencies of
//! elements that appeared in the prefix. The adaptive extension also follows
//! elements that show up later: a Bloom filter records which elements have
//! been seen, and each bucket keeps a *count of distinct elements* `c_j` next
//! to its aggregate frequency `φ_j`. When a never-seen element arrives it is
//! routed by the classifier, the bucket's distinct count and frequency both
//! grow, and the Bloom filter marks it as seen; subsequent arrivals only grow
//! the frequency. Point queries return `φ_j / c_j`, multiplied by the Bloom
//! membership bit so elements that never appeared estimate to zero.
//!
//! Bloom false positives make the extension slightly over-estimate (a "new"
//! element mistaken for seen does not grow `c_j`), exactly the behaviour the
//! paper describes.

use crate::config::OptHashConfig;
use crate::estimator::OptHash;
use crate::stats::EstimatorStats;
use opthash_sketch::BloomFilter;
use opthash_stream::{ElementId, FrequencyEstimator, SpaceReport, StreamElement, StreamPrefix};

/// `opt-hash` with the Bloom-filter adaptive counting extension.
#[derive(Debug, Clone)]
pub struct AdaptiveOptHash {
    /// The underlying learned scheme (hash table + classifier + counters for
    /// prefix elements).
    base: OptHash,
    /// Distinct-element count per bucket, *including* unseen elements added
    /// after the prefix.
    bucket_distinct: Vec<usize>,
    /// Aggregate frequency per bucket contributed by unseen elements.
    bucket_unseen_counts: Vec<f64>,
    /// Membership filter over every element seen so far.
    bloom: BloomFilter,
}

impl AdaptiveOptHash {
    /// Trains the adaptive estimator: learns the hashing scheme and the
    /// classifier exactly like [`OptHash::train`], then initializes the Bloom
    /// filter with the prefix elements and the per-bucket distinct counts
    /// with the prefix assignment.
    pub fn train(config: OptHashConfig, prefix: &StreamPrefix, bloom_bits: usize) -> Self {
        let base = OptHash::train(config, prefix);
        let buckets = base.buckets();
        let mut bloom = BloomFilter::new(bloom_bits.max(64), 4, config.seed.wrapping_add(101));
        let mut bucket_distinct = vec![0usize; buckets];
        for element in prefix.elements() {
            if let Some(bucket) = base.is_stored(element.id).then(|| {
                // bucket_of never consults the classifier for stored elements
                base.bucket_of(&StreamElement::new(element.id, element.features.clone()))
            }) {
                bucket_distinct[bucket] += 1;
                bloom.insert(element.id);
            }
        }
        AdaptiveOptHash {
            base,
            bucket_distinct,
            bucket_unseen_counts: vec![0.0; buckets],
            bloom,
        }
    }

    /// The underlying static estimator (hash table, classifier, stats).
    pub fn base(&self) -> &OptHash {
        &self.base
    }

    /// Training statistics (same as the base estimator's).
    pub fn stats(&self) -> &EstimatorStats {
        self.base.stats()
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.base.buckets()
    }

    /// Returns `true` if the element has (apparently) been seen, according to
    /// the Bloom filter.
    pub fn seen(&self, id: ElementId) -> bool {
        self.bloom.contains(id)
    }

    /// Distinct-element count `c_j` of a bucket (prefix elements plus unseen
    /// elements first observed after the prefix).
    pub fn bucket_distinct(&self, bucket: usize) -> usize {
        self.bucket_distinct[bucket]
    }

    /// Current average frequency `φ_j / c_j` of a bucket.
    pub fn bucket_average(&self, bucket: usize) -> f64 {
        let distinct = self.bucket_distinct[bucket];
        if distinct == 0 {
            return 0.0;
        }
        let total = self.base.bucket_count(bucket) + self.bucket_unseen_counts[bucket];
        total / distinct as f64
    }

    /// Adds `count` occurrences of an element, tracking unseen elements via
    /// the Bloom filter.
    pub fn add(&mut self, element: &StreamElement, count: u64) {
        if count == 0 {
            return;
        }
        if self.base.is_stored(element.id) {
            self.base.add(element, count);
            return;
        }
        let bucket = self.base.predict_bucket(&element.features);
        let is_new = self.bloom.insert_and_check_new(element.id);
        if is_new {
            self.bucket_distinct[bucket] += 1;
        }
        self.bucket_unseen_counts[bucket] += count as f64;
    }

    /// Creates an estimator sharing this one's learned structure but with
    /// zeroed bucket counters and zeroed distinct counts: a *delta*
    /// accumulator for one shard of a partitioned stream. The fork's Bloom
    /// filter starts with the parent's bits (so elements seen before the
    /// fork are still recognized) but contributes only its own insertions
    /// when unioned back.
    ///
    /// Exactness note: merging forks back via
    /// [`AdaptiveOptHash::merge_counts`] reproduces sequential processing
    /// when the stream is partitioned *by element ID* (each distinct ID
    /// confined to one fork), up to Bloom false positives: a fork cannot
    /// see bits set concurrently by its siblings, so an element that would
    /// have been a false positive sequentially may be counted as new in its
    /// shard (or vice versa). The probability is bounded by the filter's
    /// false-positive rate; size the filter accordingly.
    pub fn fork_empty(&self) -> Self {
        AdaptiveOptHash {
            base: self.base.fork_empty(),
            bucket_distinct: vec![0; self.bucket_distinct.len()],
            bucket_unseen_counts: vec![0.0; self.bucket_unseen_counts.len()],
            bloom: self.bloom.clone_delta(),
        }
    }

    /// Adds another estimator's deltas into this one: aggregate bucket
    /// counters, unseen-element counters and distinct counts are summed and
    /// the Bloom filters are unioned. `O(buckets + bloom bits / 64)`.
    ///
    /// # Panics
    ///
    /// Panics if the two estimators come from different training runs
    /// (different bucket counts or Bloom configurations).
    pub fn merge_counts(&mut self, other: &AdaptiveOptHash) {
        self.base.merge_counts(&other.base);
        assert_eq!(
            self.bucket_distinct.len(),
            other.bucket_distinct.len(),
            "can only merge adaptive estimators from the same training run"
        );
        for (d, &o) in self.bucket_distinct.iter_mut().zip(&other.bucket_distinct) {
            *d += o;
        }
        for (c, &o) in self
            .bucket_unseen_counts
            .iter_mut()
            .zip(&other.bucket_unseen_counts)
        {
            *c += o;
        }
        self.bloom.union(&other.bloom);
    }

    /// Itemized memory usage: the base estimator plus the Bloom filter bits
    /// and one extra distinct-element counter per bucket.
    pub fn space_report(&self) -> SpaceReport {
        let mut report = self.base.space_report();
        report.bloom_bits += self.bloom.num_bits();
        // one 4-byte distinct counter per bucket
        report.auxiliary_bytes += self.buckets() * 4;
        report
    }
}

impl FrequencyEstimator for AdaptiveOptHash {
    fn update(&mut self, element: &StreamElement) {
        self.add(element, 1);
    }

    fn estimate(&self, element: &StreamElement) -> f64 {
        if self.base.is_stored(element.id) {
            let bucket = self.base.bucket_of(element);
            return self.bucket_average(bucket);
        }
        if !self.bloom.contains(element.id) {
            return 0.0;
        }
        let bucket = self.base.predict_bucket(&element.features);
        self.bucket_average(bucket)
    }

    fn space_bytes(&self) -> usize {
        self.space_report().total_bytes()
    }

    fn name(&self) -> &'static str {
        "opt-hash-adaptive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OptHashBuilder, SolverKind};
    use opthash_stream::Stream;

    fn grouped_prefix() -> StreamPrefix {
        let mut arrivals = Vec::new();
        for _ in 0..20 {
            arrivals.push(StreamElement::new(0u64, vec![0.0, 0.1]));
            arrivals.push(StreamElement::new(1u64, vec![0.2, 0.0]));
        }
        for id in 2u64..6 {
            arrivals.push(StreamElement::new(id, vec![10.0 + id as f64 * 0.1, 10.0]));
        }
        StreamPrefix::from_stream(Stream::from_arrivals(arrivals))
    }

    fn train_adaptive() -> AdaptiveOptHash {
        OptHashBuilder::new(2)
            .lambda(1.0)
            .solver(SolverKind::Dp)
            .train_adaptive(&grouped_prefix(), 1 << 12)
    }

    #[test]
    fn prefix_elements_are_marked_seen_and_counted() {
        let est = train_adaptive();
        for id in 0u64..6 {
            assert!(
                est.seen(ElementId(id)),
                "prefix element {id} not marked seen"
            );
        }
        let total_distinct: usize = (0..est.buckets()).map(|j| est.bucket_distinct(j)).sum();
        assert_eq!(total_distinct, 6);
    }

    #[test]
    fn never_seen_elements_estimate_to_zero() {
        let est = train_adaptive();
        let ghost = StreamElement::new(777u64, vec![10.0, 10.0]);
        assert_eq!(est.estimate(&ghost), 0.0);
    }

    #[test]
    fn unseen_arrivals_are_tracked_after_first_appearance() {
        let mut est = train_adaptive();
        let newcomer = StreamElement::new(500u64, vec![10.4, 10.1]);
        let bucket = est.base().predict_bucket(&newcomer.features);
        let distinct_before = est.bucket_distinct(bucket);
        est.update(&newcomer);
        est.update(&newcomer);
        est.update(&newcomer);
        assert_eq!(est.bucket_distinct(bucket), distinct_before + 1);
        let estimate = est.estimate(&newcomer);
        assert!(estimate > 0.0);
        assert!(est.seen(ElementId(500)));
    }

    #[test]
    fn adaptive_tracks_unseen_better_than_static() {
        let prefix = grouped_prefix();
        let mut adaptive = OptHashBuilder::new(2)
            .lambda(1.0)
            .solver(SolverKind::Dp)
            .train_adaptive(&prefix, 1 << 12);
        let mut static_est = OptHashBuilder::new(2)
            .lambda(1.0)
            .solver(SolverKind::Dp)
            .train(&prefix);

        // A burst of arrivals of a cold-looking element never seen in the
        // prefix. True frequency after the burst: 50.
        let newcomer = StreamElement::new(901u64, vec![10.2, 9.9]);
        for _ in 0..50 {
            adaptive.update(&newcomer);
            static_est.update(&newcomer);
        }
        let true_frequency = 50.0;
        let adaptive_error = (adaptive.estimate(&newcomer) - true_frequency).abs();
        let static_error = (static_est.estimate(&newcomer) - true_frequency).abs();
        assert!(
            adaptive_error < static_error,
            "adaptive err {adaptive_error} vs static err {static_error}"
        );
    }

    #[test]
    fn stored_elements_still_use_the_hash_table() {
        let mut est = train_adaptive();
        let hot = StreamElement::new(0u64, vec![0.0, 0.1]);
        let before = est.estimate(&hot);
        for _ in 0..10 {
            est.update(&hot);
        }
        assert!(est.estimate(&hot) > before);
    }

    #[test]
    fn space_includes_bloom_bits_and_distinct_counters() {
        let est = train_adaptive();
        let report = est.space_report();
        assert_eq!(report.bloom_bits, 1 << 12);
        assert_eq!(report.auxiliary_bytes, est.buckets() * 4);
        assert!(est.space_bytes() > est.base().space_bytes());
        assert_eq!(est.name(), "opt-hash-adaptive");
    }

    #[test]
    fn zero_count_add_is_noop() {
        let mut est = train_adaptive();
        let newcomer = StreamElement::new(640u64, vec![9.9, 10.3]);
        est.add(&newcomer, 0);
        assert!(!est.seen(ElementId(640)));
    }

    #[test]
    fn id_partitioned_forks_merge_back_to_sequential_state() {
        let mut sequential = train_adaptive();
        let mut merged = sequential.clone();
        let mut fork_a = merged.fork_empty();
        let mut fork_b = merged.fork_empty();

        // A continuation containing stored elements (ids 0..6) and unseen
        // ones (ids 100..110), partitioned by ID parity — each distinct ID
        // is confined to one fork, the discipline fork_empty documents.
        let arrivals: Vec<StreamElement> = (0..12u64)
            .cycle()
            .take(120)
            .map(|id| {
                let id = if id < 6 { id } else { 94 + id };
                StreamElement::new(id, vec![10.0, 10.0])
            })
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
            assert_eq!(
                merged.bucket_distinct(bucket),
                sequential.bucket_distinct(bucket),
                "distinct count diverged in bucket {bucket}"
            );
            assert!(
                (merged.bucket_average(bucket) - sequential.bucket_average(bucket)).abs() < 1e-9,
                "average diverged in bucket {bucket}"
            );
        }
        for arrival in &arrivals {
            assert_eq!(merged.seen(arrival.id), sequential.seen(arrival.id));
            assert!(
                (merged.estimate(arrival)
                    - <AdaptiveOptHash as FrequencyEstimator>::estimate(&sequential, arrival))
                .abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn bucket_average_of_empty_bucket_is_zero() {
        // Train with more buckets than elements so at least one stays empty.
        let est = OptHashBuilder::new(8)
            .lambda(1.0)
            .solver(SolverKind::Dp)
            .train_adaptive(&grouped_prefix(), 256);
        let empty_bucket = (0..est.buckets())
            .find(|&j| est.bucket_distinct(j) == 0)
            .expect("some bucket should be empty");
        assert_eq!(est.bucket_average(empty_bucket), 0.0);
    }
}
