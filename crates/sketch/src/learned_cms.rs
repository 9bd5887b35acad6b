//! The Learned Count-Min Sketch with an ideal heavy-hitter oracle
//! (`heavy-hitter` baseline, Section 2.2).
//!
//! Hsu et al. (2019) augment the Count-Min Sketch with a classifier that
//! predicts whether an element is a heavy hitter; predicted heavy hitters get
//! their own *unique* bucket (an exact counter storing the element ID, costed
//! at twice a normal bucket), and the rest of the universe falls through to a
//! standard Count-Min Sketch over the remaining budget.
//!
//! Following Section 7.2 of the paper, this implementation assumes an *ideal*
//! oracle: the caller supplies the exact set of heavy-hitter IDs (e.g. the
//! top-`b_heavy` elements of the test period). The paper shows that the ideal
//! version upper-bounds any realistically trainable version, so beating it is
//! the strongest possible comparison for `opt-hash`.

use crate::count_min::CountMinSketch;
use opthash_stream::{ElementId, FrequencyEstimator, SpaceBudget, SpaceReport, StreamElement};
use std::collections::HashMap;

/// Learned Count-Min Sketch with an ideal heavy-hitter oracle.
#[derive(Debug, Clone)]
pub struct LearnedCountMin {
    /// Exact counters for oracle-designated heavy hitters.
    heavy: HashMap<ElementId, u64>,
    /// Fallback sketch for everything else.
    backing: CountMinSketch,
    /// Number of unique buckets reserved (each costs two ordinary buckets).
    reserved_heavy: usize,
}

impl LearnedCountMin {
    /// Creates the estimator from an explicit list of oracle heavy-hitter
    /// IDs, the number of ordinary buckets left for the backing Count-Min
    /// Sketch, and the sketch depth.
    ///
    /// The number of reserved unique buckets equals `heavy_ids.len()` after
    /// deduplication.
    pub fn new(
        heavy_ids: impl IntoIterator<Item = ElementId>,
        remaining_buckets: usize,
        depth: usize,
        seed: u64,
    ) -> Self {
        let heavy: HashMap<ElementId, u64> = heavy_ids.into_iter().map(|id| (id, 0u64)).collect();
        let backing = CountMinSketch::with_total_buckets(remaining_buckets.max(depth), depth, seed);
        LearnedCountMin {
            reserved_heavy: heavy.len(),
            heavy,
            backing,
        }
    }

    /// Creates the estimator from a total memory budget: `requested_heavy`
    /// unique buckets are reserved (clamped to half the budget as in the
    /// paper), the rest goes to the backing sketch.
    ///
    /// `heavy_ids` supplies the oracle's heavy-hitter IDs in priority order;
    /// only the first `b_heavy` of them receive unique buckets.
    pub fn with_budget(
        budget: SpaceBudget,
        requested_heavy: usize,
        heavy_ids: &[ElementId],
        depth: usize,
        seed: u64,
    ) -> Self {
        let (heavy_buckets, remaining) = budget.learned_cms_split(requested_heavy);
        let chosen = heavy_ids.iter().copied().take(heavy_buckets);
        Self::new(chosen, remaining.max(depth), depth, seed)
    }

    /// Number of unique (heavy-hitter) buckets reserved.
    #[inline]
    pub fn heavy_buckets(&self) -> usize {
        self.reserved_heavy
    }

    /// Returns `true` if `id` is tracked exactly by a unique bucket.
    pub fn is_heavy(&self, id: ElementId) -> bool {
        self.heavy.contains_key(&id)
    }

    /// Adds `count` occurrences of `id`.
    pub fn add(&mut self, id: ElementId, count: u64) {
        if count == 0 {
            return;
        }
        if let Some(counter) = self.heavy.get_mut(&id) {
            *counter += count;
        } else {
            self.backing.add(id, count);
        }
    }

    /// Point query.
    pub fn query(&self, id: ElementId) -> u64 {
        match self.heavy.get(&id) {
            Some(&count) => count,
            None => self.backing.query(id),
        }
    }

    /// Creates an estimator with the same oracle set and backing-sketch
    /// configuration but all counters zeroed — the shard-local state used by
    /// the sharded ingest engine. `O(heavy + width · depth)`.
    pub fn clone_empty(&self) -> Self {
        LearnedCountMin {
            heavy: self.heavy.keys().map(|&id| (id, 0u64)).collect(),
            backing: self.backing.clone_empty(),
            reserved_heavy: self.reserved_heavy,
        }
    }

    /// Merges another estimator with the *same oracle set and configuration*
    /// into this one: unique-bucket counters are added per ID and the
    /// backing sketches are merged. Exact over disjoint sub-streams (both
    /// halves are linear). `O(heavy + width · depth)`.
    ///
    /// # Panics
    ///
    /// Panics if the two estimators track different heavy-hitter sets or
    /// have incompatible backing sketches.
    pub fn merge(&mut self, other: &LearnedCountMin) {
        assert_eq!(
            self.reserved_heavy, other.reserved_heavy,
            "can only merge Learned Count-Min estimators with the same oracle"
        );
        for (id, &count) in &other.heavy {
            let counter = self
                .heavy
                .get_mut(id)
                .expect("can only merge Learned Count-Min estimators with the same oracle");
            *counter += count;
        }
        self.backing.merge(&other.backing);
    }

    /// Itemized memory usage: the backing sketch's counters plus one unique
    /// bucket per reserved heavy hitter.
    pub fn space_report(&self) -> SpaceReport {
        SpaceReport {
            counters: self.backing.total_buckets(),
            unique_buckets: self.reserved_heavy,
            ..SpaceReport::default()
        }
    }
}

impl FrequencyEstimator for LearnedCountMin {
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
        "heavy-hitter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opthash_stream::{FrequencyVector, Stream};

    fn zipfish_stream(distinct: u64, arrivals: usize, seed: u64) -> Stream {
        let mut ids = Vec::with_capacity(arrivals);
        let mut state = seed.max(1);
        let weights: Vec<f64> = (0..distinct).map(|k| 1.0 / (k as f64 + 1.0)).collect();
        let total: f64 = weights.iter().sum();
        for _ in 0..arrivals {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let mut u = (state % 1_000_000) as f64 / 1_000_000.0 * total;
            let mut chosen = distinct - 1;
            for (k, &w) in weights.iter().enumerate() {
                if u < w {
                    chosen = k as u64;
                    break;
                }
                u -= w;
            }
            ids.push(chosen);
        }
        Stream::from_ids(ids)
    }

    #[test]
    fn heavy_hitters_are_exact() {
        let stream = zipfish_stream(500, 20_000, 1);
        let truth = FrequencyVector::from_stream(&stream);
        let heavy: Vec<ElementId> = truth.ids_by_rank().into_iter().take(20).collect();
        let mut lcms = LearnedCountMin::new(heavy.clone(), 200, 2, 3);
        lcms.update_stream(&stream);
        for id in heavy {
            assert_eq!(lcms.query(id), truth.frequency(id), "heavy {id} not exact");
        }
    }

    #[test]
    fn non_heavy_elements_never_underestimated() {
        let stream = zipfish_stream(300, 10_000, 5);
        let truth = FrequencyVector::from_stream(&stream);
        let heavy: Vec<ElementId> = truth.ids_by_rank().into_iter().take(10).collect();
        let mut lcms = LearnedCountMin::new(heavy, 128, 2, 7);
        lcms.update_stream(&stream);
        for (id, f) in truth.iter() {
            assert!(lcms.query(id) >= f);
        }
    }

    #[test]
    fn beats_plain_count_min_at_equal_space_on_skewed_data() {
        let stream = zipfish_stream(2_000, 50_000, 9);
        let truth = FrequencyVector::from_stream(&stream);
        let budget = SpaceBudget::from_kb(2.0); // 500 buckets
        let heavy_ids = truth.ids_by_rank();

        let mut lcms = LearnedCountMin::with_budget(budget, 100, &heavy_ids, 2, 1);
        let mut cms = CountMinSketch::with_total_buckets(budget.total_buckets(), 2, 1);
        lcms.update_stream(&stream);
        cms.update_stream(&stream);
        assert!(lcms.space_bytes() <= budget.bytes());
        assert!(cms.space_bytes() <= budget.bytes());

        let mut lcms_err = 0.0;
        let mut cms_err = 0.0;
        for (id, f) in truth.iter() {
            let w = f as f64; // expected-magnitude weighting
            lcms_err += w * (lcms.query(id) as f64 - f as f64).abs();
            cms_err += w * (cms.query(id) as f64 - f as f64).abs();
        }
        assert!(
            lcms_err < cms_err,
            "LCMS ({lcms_err}) should beat CMS ({cms_err}) on skewed data"
        );
    }

    #[test]
    fn with_budget_clamps_heavy_buckets_to_half() {
        let budget = SpaceBudget::from_kb(1.0); // 250 buckets
        let ids: Vec<ElementId> = (0..1_000u64).map(ElementId).collect();
        let lcms = LearnedCountMin::with_budget(budget, 10_000, &ids, 2, 1);
        assert_eq!(lcms.heavy_buckets(), 125);
    }

    #[test]
    fn space_report_charges_unique_buckets_double() {
        let lcms = LearnedCountMin::new((0..10u64).map(ElementId), 100, 2, 1);
        let report = lcms.space_report();
        assert_eq!(report.unique_buckets, 10);
        assert_eq!(report.counters, 100);
        assert_eq!(report.total_bytes(), 100 * 4 + 10 * 8);
        assert_eq!(lcms.name(), "heavy-hitter");
    }

    #[test]
    fn duplicate_heavy_ids_are_deduplicated() {
        let lcms = LearnedCountMin::new(vec![ElementId(1), ElementId(1), ElementId(2)], 16, 2, 1);
        assert_eq!(lcms.heavy_buckets(), 2);
        assert!(lcms.is_heavy(ElementId(1)));
        assert!(!lcms.is_heavy(ElementId(3)));
    }

    #[test]
    fn zero_count_add_is_noop() {
        let mut lcms = LearnedCountMin::new(vec![ElementId(1)], 16, 2, 1);
        lcms.add(ElementId(1), 0);
        lcms.add(ElementId(2), 0);
        assert_eq!(lcms.query(ElementId(1)), 0);
        assert_eq!(lcms.query(ElementId(2)), 0);
    }

    #[test]
    fn merged_estimators_equal_sequential_processing() {
        let stream = zipfish_stream(500, 20_000, 13);
        let truth = FrequencyVector::from_stream(&stream);
        let heavy: Vec<ElementId> = truth.ids_by_rank().into_iter().take(20).collect();

        let mut sequential = LearnedCountMin::new(heavy.clone(), 256, 2, 5);
        sequential.update_stream(&stream);

        let mut merged = LearnedCountMin::new(heavy, 256, 2, 5);
        let mut shards = [merged.clone_empty(), merged.clone_empty()];
        for arrival in stream.iter() {
            shards[(arrival.id.raw() % 2) as usize].add(arrival.id, 1);
        }
        merged.merge(&shards[0]);
        merged.merge(&shards[1]);

        for (id, _) in truth.iter() {
            assert_eq!(merged.query(id), sequential.query(id), "mismatch for {id}");
        }
    }

    #[test]
    #[should_panic(expected = "same oracle")]
    fn merging_different_oracles_panics() {
        let mut a = LearnedCountMin::new(vec![ElementId(1)], 16, 2, 1);
        let b = LearnedCountMin::new(vec![ElementId(2)], 16, 2, 1);
        a.merge(&b);
    }
}
