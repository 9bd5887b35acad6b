//! The Misra–Gries / Space-Saving heavy-hitter summary.
//!
//! The paper's introduction motivates frequency estimation with heavy-hitter
//! detection and cites Misra & Gries ("Finding repeated elements", 1982) as
//! the origin of the streaming literature. This deterministic counter-based
//! summary keeps at most `k` candidate elements; any element with frequency
//! greater than `‖f‖₁ / (k+1)` is guaranteed to be tracked, and every
//! reported count under-estimates the true frequency by at most
//! `‖f‖₁ / (k+1)`. It serves as an additional non-learning baseline and as
//! the oracle-free heavy-hitter detector used by ablation experiments.

use opthash_stream::{ElementId, FrequencyEstimator, SpaceReport, StreamElement};
use std::collections::HashMap;

/// Misra–Gries summary with at most `capacity` tracked counters.
#[derive(Debug, Clone)]
pub struct MisraGries {
    capacity: usize,
    counters: HashMap<ElementId, u64>,
    total_updates: u64,
}

impl MisraGries {
    /// Creates a summary holding at most `capacity` counters.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        MisraGries {
            capacity,
            counters: HashMap::with_capacity(capacity + 1),
            total_updates: 0,
        }
    }

    /// Maximum number of tracked elements.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of elements currently tracked.
    #[inline]
    pub fn tracked(&self) -> usize {
        self.counters.len()
    }

    /// Total number of updates processed (`‖f‖₁`).
    #[inline]
    pub fn total_updates(&self) -> u64 {
        self.total_updates
    }

    /// Adds `count` occurrences of `id`.
    pub fn add(&mut self, id: ElementId, count: u64) {
        if count == 0 {
            return;
        }
        self.total_updates += count;
        if let Some(counter) = self.counters.get_mut(&id) {
            *counter += count;
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(id, count);
            return;
        }
        // Decrement phase: subtract the largest amount that keeps every
        // counter non-negative (the classical algorithm decrements by 1 per
        // arrival; decrementing by `min(count, smallest counter)` batches the
        // same effect for weighted updates).
        let mut remaining = count;
        while remaining > 0 {
            let min_count = self.counters.values().copied().min().unwrap_or(0);
            if min_count == 0 {
                self.counters.retain(|_, c| *c > 0);
                if self.counters.len() < self.capacity {
                    self.counters.insert(id, remaining);
                }
                return;
            }
            let decrement = min_count.min(remaining);
            for counter in self.counters.values_mut() {
                *counter -= decrement;
            }
            remaining -= decrement;
            self.counters.retain(|_, c| *c > 0);
            if self.counters.len() < self.capacity && remaining > 0 {
                self.counters.insert(id, remaining);
                return;
            }
        }
    }

    /// Creates an empty summary with the same capacity — the state of one
    /// shard of a partitioned stream, merged back with
    /// [`MisraGries::merge`]. `O(1)`.
    pub fn clone_empty(&self) -> Self {
        MisraGries::new(self.capacity)
    }

    /// Merges another summary into this one using the classical
    /// Misra–Gries merge (Agarwal et al., "Mergeable Summaries"): counters
    /// are added pairwise, then the `(capacity + 1)`-th largest count is
    /// subtracted from every counter and non-positive counters are dropped.
    /// `O(capacity · log capacity)`.
    ///
    /// The merged summary keeps the deterministic guarantee: each reported
    /// count under-estimates the true frequency of the concatenated stream
    /// by at most `‖f‖₁ / (capacity + 1)`. Results may differ from a
    /// sequentially built summary (the decrement schedule is different),
    /// but the error bound is preserved.
    ///
    /// # Panics
    ///
    /// Panics if the two summaries have different capacities.
    pub fn merge(&mut self, other: &MisraGries) {
        assert_eq!(
            self.capacity, other.capacity,
            "can only merge Misra-Gries summaries of equal capacity"
        );
        for (&id, &count) in &other.counters {
            *self.counters.entry(id).or_insert(0) += count;
        }
        self.total_updates += other.total_updates;
        if self.counters.len() > self.capacity {
            let mut counts: Vec<u64> = self.counters.values().copied().collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let threshold = counts[self.capacity];
            for counter in self.counters.values_mut() {
                *counter = counter.saturating_sub(threshold);
            }
            self.counters.retain(|_, c| *c > 0);
        }
    }

    /// Lower-bound estimate of the frequency of `id` (0 if not tracked).
    /// The true frequency exceeds this by at most `‖f‖₁ / (capacity + 1)`.
    pub fn query(&self, id: ElementId) -> u64 {
        self.counters.get(&id).copied().unwrap_or(0)
    }

    /// The deterministic error bound `‖f‖₁ / (capacity + 1)`.
    pub fn error_bound(&self) -> f64 {
        self.total_updates as f64 / (self.capacity as f64 + 1.0)
    }

    /// Candidate heavy hitters sorted by decreasing estimated count.
    pub fn heavy_hitters(&self) -> Vec<(ElementId, u64)> {
        let mut items: Vec<(ElementId, u64)> =
            self.counters.iter().map(|(&k, &v)| (k, v)).collect();
        items.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        items
    }

    /// Elements whose estimated count alone certifies a frequency above
    /// `threshold` (no false positives thanks to the under-estimate
    /// guarantee).
    pub fn certified_above(&self, threshold: u64) -> Vec<ElementId> {
        self.heavy_hitters()
            .into_iter()
            .filter(|&(_, c)| c > threshold)
            .map(|(id, _)| id)
            .collect()
    }

    /// Itemized memory usage: each tracked element stores an ID and a
    /// counter, i.e. one stored ID plus one counter bucket.
    pub fn space_report(&self) -> SpaceReport {
        SpaceReport {
            counters: self.capacity,
            stored_ids: self.capacity,
            ..SpaceReport::default()
        }
    }
}

impl FrequencyEstimator for MisraGries {
    fn update(&mut self, element: &StreamElement) {
        self.add(element.id, 1);
    }

    fn estimate(&self, element: &StreamElement) -> f64 {
        self.query(element.id) as f64
    }

    fn space_bytes(&self) -> usize {
        self.space_report().total_bytes()
    }

    fn name(&self) -> &'static str {
        "misra-gries"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opthash_stream::{FrequencyVector, Stream};

    fn skewed_stream(distinct: u64, arrivals: usize, seed: u64) -> Stream {
        let mut ids = Vec::with_capacity(arrivals);
        let mut state = seed.max(1);
        for _ in 0..arrivals {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let id = if state % 10 < 6 {
                state % 5
            } else {
                5 + state % distinct
            };
            ids.push(id);
        }
        Stream::from_ids(ids)
    }

    #[test]
    fn never_overestimates() {
        let stream = skewed_stream(500, 20_000, 3);
        let truth = FrequencyVector::from_stream(&stream);
        let mut mg = MisraGries::new(20);
        mg.update_stream(&stream);
        for (id, f) in truth.iter() {
            assert!(mg.query(id) <= f, "over-estimate for {id}");
        }
    }

    #[test]
    fn underestimate_respects_error_bound() {
        let stream = skewed_stream(300, 30_000, 7);
        let truth = FrequencyVector::from_stream(&stream);
        let mut mg = MisraGries::new(50);
        mg.update_stream(&stream);
        let bound = mg.error_bound();
        for (id, f) in truth.iter() {
            let deficit = f as f64 - mg.query(id) as f64;
            assert!(
                deficit <= bound + 1e-9,
                "deficit {deficit} exceeds bound {bound}"
            );
        }
    }

    #[test]
    fn true_heavy_hitters_are_tracked() {
        let stream = skewed_stream(1_000, 50_000, 9);
        let truth = FrequencyVector::from_stream(&stream);
        let mut mg = MisraGries::new(32);
        mg.update_stream(&stream);
        // Every element with frequency above ||f||1/(k+1) must be present.
        let threshold = mg.error_bound();
        for (id, f) in truth.iter() {
            if f as f64 > threshold {
                assert!(
                    mg.query(id) > 0,
                    "heavy element {id} (freq {f}) was evicted"
                );
            }
        }
    }

    #[test]
    fn certified_heavy_hitters_have_no_false_positives() {
        let stream = skewed_stream(400, 20_000, 11);
        let truth = FrequencyVector::from_stream(&stream);
        let mut mg = MisraGries::new(16);
        mg.update_stream(&stream);
        for id in mg.certified_above(500) {
            assert!(truth.frequency(id) > 500);
        }
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let stream = skewed_stream(5_000, 30_000, 13);
        let mut mg = MisraGries::new(10);
        mg.update_stream(&stream);
        assert!(mg.tracked() <= 10);
        assert_eq!(mg.capacity(), 10);
        assert_eq!(mg.total_updates(), 30_000);
    }

    #[test]
    fn exact_when_distinct_elements_fit() {
        let stream = Stream::from_ids([1u64, 1, 2, 3, 3, 3]);
        let mut mg = MisraGries::new(8);
        mg.update_stream(&stream);
        assert_eq!(mg.query(ElementId(1)), 2);
        assert_eq!(mg.query(ElementId(3)), 3);
        assert_eq!(mg.query(ElementId(9)), 0);
    }

    #[test]
    fn weighted_updates_behave_like_repeated_unit_updates() {
        let mut batched = MisraGries::new(3);
        let mut unit = MisraGries::new(3);
        let updates: [(u64, u64); 6] = [(1, 5), (2, 3), (3, 1), (4, 2), (1, 4), (5, 1)];
        for &(id, count) in &updates {
            batched.add(ElementId(id), count);
            for _ in 0..count {
                unit.add(ElementId(id), 1);
            }
        }
        // Both maintain the Misra-Gries invariants; the heavy element 1 must
        // be tracked by both and never over-estimated.
        assert!(batched.query(ElementId(1)) <= 9);
        assert!(unit.query(ElementId(1)) <= 9);
        assert!(batched.query(ElementId(1)) > 0);
        assert!(unit.query(ElementId(1)) > 0);
    }

    #[test]
    fn space_and_name() {
        let mg = MisraGries::new(100);
        assert_eq!(mg.space_bytes(), 100 * 4 + 100 * 4);
        assert_eq!(mg.name(), "misra-gries");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = MisraGries::new(0);
    }

    #[test]
    fn zero_count_add_is_noop() {
        let mut mg = MisraGries::new(4);
        mg.add(ElementId(1), 0);
        assert_eq!(mg.total_updates(), 0);
        assert_eq!(mg.tracked(), 0);
    }

    #[test]
    fn merge_respects_capacity_and_error_bound() {
        let stream = skewed_stream(800, 40_000, 17);
        let truth = FrequencyVector::from_stream(&stream);
        let mut merged = MisraGries::new(24);
        let mut shards = [merged.clone_empty(), merged.clone_empty()];
        for arrival in stream.iter() {
            shards[(arrival.id.raw() % 2) as usize].add(arrival.id, 1);
        }
        merged.merge(&shards[0]);
        merged.merge(&shards[1]);

        assert!(merged.tracked() <= 24);
        assert_eq!(merged.total_updates(), 40_000);
        let bound = merged.error_bound();
        for (id, f) in truth.iter() {
            let estimate = merged.query(id);
            assert!(estimate <= f, "merge must not over-estimate {id}");
            assert!(
                f as f64 - estimate as f64 <= bound + 1e-9,
                "merged deficit for {id} exceeds the bound"
            );
        }
    }

    #[test]
    #[should_panic(expected = "equal capacity")]
    fn merging_mismatched_capacities_panics() {
        let mut a = MisraGries::new(4);
        let b = MisraGries::new(8);
        a.merge(&b);
    }
}
