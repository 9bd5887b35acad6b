//! The Count Sketch (median-of-signed-counters estimator).
//!
//! Each level hashes the element to a bucket *and* to a ±1 sign; updates add
//! the sign to the bucket and queries multiply the bucket by the sign again,
//! yielding an unbiased per-level estimate. The final estimate is the median
//! across levels (Charikar, Chen & Farach-Colton 2002; referenced in
//! Section 1.1 of the paper). Unlike the Count-Min Sketch it can under- as
//! well as over-estimate, but its error scales with `‖f‖₂` instead of
//! `‖f‖₁`, which is much smaller on skewed streams.

use crate::hashing::{PairwiseHash, SignHash};
use opthash_stream::{ElementId, FrequencyEstimator, SpaceReport, StreamElement};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Count Sketch.
#[derive(Debug, Clone)]
pub struct CountSketch {
    width: usize,
    depth: usize,
    bucket_hashes: Vec<PairwiseHash>,
    sign_hashes: Vec<SignHash>,
    /// Row-major `depth × width` signed counters.
    counters: Vec<i64>,
    total_updates: u64,
}

impl CountSketch {
    /// Creates a sketch with the given `width` and `depth`, seeded for
    /// reproducible hashing.
    pub fn new(width: usize, depth: usize, seed: u64) -> Self {
        assert!(width > 0, "width must be positive");
        assert!(depth > 0, "depth must be positive");
        let cells = width.checked_mul(depth).expect("grid size overflows usize");
        let mut rng = StdRng::seed_from_u64(seed);
        let bucket_hashes = (0..depth)
            .map(|_| PairwiseHash::draw(width, &mut rng))
            .collect();
        let sign_hashes = (0..depth).map(|_| SignHash::draw(&mut rng)).collect();
        CountSketch {
            width,
            depth,
            bucket_hashes,
            sign_hashes,
            counters: vec![0; cells],
            total_updates: 0,
        }
    }

    /// Creates a sketch using `total_buckets` counters across `depth` levels.
    pub fn with_total_buckets(total_buckets: usize, depth: usize, seed: u64) -> Self {
        assert!(depth > 0, "depth must be positive");
        Self::new((total_buckets / depth).max(1), depth, seed)
    }

    /// Buckets per level.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of levels.
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total counters (`width × depth`).
    #[inline]
    pub fn total_buckets(&self) -> usize {
        self.width * self.depth
    }

    /// Total count mass added so far (`‖f‖₁` of the processed stream).
    #[inline]
    pub fn total_updates(&self) -> u64 {
        self.total_updates
    }

    /// Adds `count` occurrences of `id`. Counters add the weight exactly;
    /// a weight past `i64::MAX` saturates there.
    pub fn add(&mut self, id: ElementId, count: u64) {
        if count == 0 {
            return;
        }
        self.total_updates += count;
        let weight = i64::try_from(count).unwrap_or(i64::MAX);
        for level in 0..self.depth {
            let b = self.bucket_hashes[level].hash(id.raw());
            let s = self.sign_hashes[level].sign(id.raw());
            self.counters[level * self.width + b] += if s > 0.0 { weight } else { -weight };
        }
    }

    /// Point query: median of per-level signed estimates. Can be negative for
    /// elements that never appeared; callers that need a frequency clamp at 0
    /// via [`FrequencyEstimator::estimate`].
    pub fn query_signed(&self, id: ElementId) -> f64 {
        let mut estimates: Vec<f64> = (0..self.depth)
            .map(|level| {
                let b = self.bucket_hashes[level].hash(id.raw());
                let s = self.sign_hashes[level].sign(id.raw());
                s * self.counters[level * self.width + b] as f64
            })
            .collect();
        estimates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let d = estimates.len();
        if d % 2 == 1 {
            estimates[d / 2]
        } else {
            0.5 * (estimates[d / 2 - 1] + estimates[d / 2])
        }
    }

    /// Creates a sketch with the same dimensions and hash/sign functions but
    /// every counter zeroed — the shard-local state used by the sharded
    /// ingest engine. `O(width · depth)`.
    pub fn clone_empty(&self) -> Self {
        CountSketch {
            width: self.width,
            depth: self.depth,
            bucket_hashes: self.bucket_hashes.clone(),
            sign_hashes: self.sign_hashes.clone(),
            counters: vec![0; self.width * self.depth],
            total_updates: 0,
        }
    }

    /// Folds the sketch down to `new_width` buckets per level, where
    /// `new_width` must divide the current width: signed counters whose
    /// bucket indices are congruent modulo `new_width` are summed and the
    /// bucket hashes are restricted to the smaller range (sign hashes are
    /// width-independent and unchanged).
    ///
    /// As with [`crate::CountMinSketch::fold_to_width`], the modular
    /// projection property of the Carter–Wegman hashes makes the folded
    /// sketch exactly the one the same stream would have produced at
    /// `new_width`: per-level estimates stay unbiased, only their variance
    /// grows. [`CountSketch::total_updates`] is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `new_width` is zero or does not divide the current width.
    pub fn fold_to_width(&mut self, new_width: usize) {
        assert!(new_width > 0, "new width must be positive");
        assert!(
            self.width.is_multiple_of(new_width),
            "new width must divide the current width"
        );
        if new_width == self.width {
            return;
        }
        let mut folded = vec![0i64; new_width * self.depth];
        for level in 0..self.depth {
            let row = &self.counters[level * self.width..(level + 1) * self.width];
            let out = &mut folded[level * new_width..(level + 1) * new_width];
            for (bucket, &count) in row.iter().enumerate() {
                out[bucket % new_width] += count;
            }
        }
        self.counters = folded;
        self.bucket_hashes = self
            .bucket_hashes
            .iter()
            .map(|h| h.with_range(new_width))
            .collect();
        self.width = new_width;
    }

    /// Merges another sketch of the *same configuration* into this one by
    /// element-wise signed-counter addition. The Count Sketch is a linear
    /// transform of the frequency vector, so merging sketches built over
    /// disjoint sub-streams is exact. `O(width · depth)`.
    ///
    /// # Panics
    ///
    /// Panics if the two sketches have different dimensions or hash
    /// functions.
    pub fn merge(&mut self, other: &CountSketch) {
        assert!(
            self.width == other.width
                && self.depth == other.depth
                && self.bucket_hashes == other.bucket_hashes
                && self.sign_hashes == other.sign_hashes,
            "can only merge Count Sketches of identical configuration"
        );
        for (c, &o) in self.counters.iter_mut().zip(&other.counters) {
            *c += o;
        }
        self.total_updates += other.total_updates;
    }

    /// Itemized memory usage.
    pub fn space_report(&self) -> SpaceReport {
        SpaceReport {
            counters: self.total_buckets(),
            ..SpaceReport::default()
        }
    }
}

impl FrequencyEstimator for CountSketch {
    fn update(&mut self, element: &StreamElement) {
        self.add(element.id, 1);
    }

    fn estimate(&self, element: &StreamElement) -> f64 {
        // A frequency is never negative. Compare instead of `f64::max`,
        // which may return a median of -0.0 with its sign.
        let signed = self.query_signed(element.id);
        if signed > 0.0 {
            signed
        } else {
            0.0
        }
    }

    fn space_bytes(&self) -> usize {
        self.space_report().total_bytes()
    }

    fn name(&self) -> &'static str {
        "count-sketch"
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
            // Geometric-ish skew: low ids far more likely.
            let r = state % 100;
            let id = if r < 50 {
                state % 5
            } else if r < 80 {
                5 + state % 20
            } else {
                25 + state % (distinct - 25)
            };
            ids.push(id);
        }
        Stream::from_ids(ids)
    }

    #[test]
    fn weights_up_to_i64_max_add_exactly() {
        let mut cs = CountSketch::new(64, 3, 5);
        // As an `f64` this weight rounds up to 2^63, past `i64::MAX`.
        cs.add(ElementId(1), i64::MAX as u64 - 300);
        cs.add(ElementId(1), 300);
        for &c in cs.counters.iter().filter(|&&c| c != 0) {
            assert_eq!(c.unsigned_abs(), i64::MAX as u64);
        }
        assert_eq!(cs.query_signed(ElementId(1)), i64::MAX as f64);
    }

    #[test]
    fn exact_when_no_collisions() {
        let stream = Stream::from_ids([1u64, 1, 2, 3, 3, 3, 4]);
        let mut cs = CountSketch::new(4096, 5, 7);
        cs.update_stream(&stream);
        assert_eq!(cs.query_signed(ElementId(1)), 2.0);
        assert_eq!(cs.query_signed(ElementId(3)), 3.0);
        assert_eq!(cs.query_signed(ElementId(99)), 0.0);
    }

    #[test]
    fn heavy_hitters_are_estimated_well_on_skewed_streams() {
        let stream = skewed_stream(500, 30_000, 2);
        let truth = FrequencyVector::from_stream(&stream);
        let mut cs = CountSketch::new(512, 5, 3);
        cs.update_stream(&stream);
        // The top-5 heavy elements should be within 15% relative error.
        for rank in 1..=5 {
            let (id, f) = truth.frequency_at_rank(rank).unwrap();
            let est = cs.query_signed(id);
            let rel = (est - f as f64).abs() / f as f64;
            assert!(rel < 0.15, "rank {rank}: est {est}, true {f}, rel {rel}");
        }
    }

    #[test]
    fn estimate_clamps_negative_to_zero() {
        let stream = skewed_stream(200, 5_000, 4);
        let mut cs = CountSketch::new(8, 1, 5);
        cs.update_stream(&stream);
        // with a single level and tiny width, some absent elements will get
        // negative signed estimates; the trait estimate must clamp them.
        let mut saw_negative_signed = false;
        for id in 10_000..10_500u64 {
            let signed = cs.query_signed(ElementId(id));
            if signed < 0.0 {
                saw_negative_signed = true;
            }
            let est = cs.estimate(&StreamElement::without_features(id));
            assert!(est >= 0.0 && est.is_sign_positive(), "id {id}: {est}");
        }
        assert!(
            saw_negative_signed,
            "expected at least one negative signed estimate"
        );
        // A zero counter under a -1 sign gives a -0.0 median; the estimate
        // must still be +0.0 (it is printed, and `-0` is not a frequency).
        for depth in 3..=5 {
            for seed in 0..4 {
                let empty = CountSketch::new(64, depth, seed);
                for id in 0..200u64 {
                    let est = empty.estimate(&StreamElement::without_features(id));
                    assert!(
                        est == 0.0 && est.is_sign_positive(),
                        "depth {depth} seed {seed} id {id}: {est}"
                    );
                }
            }
        }
    }

    #[test]
    fn median_is_taken_across_levels() {
        // Even depth: median averages the middle two level estimates.
        let mut cs = CountSketch::new(1024, 2, 11);
        cs.add(ElementId(7), 10);
        let est = cs.query_signed(ElementId(7));
        assert_eq!(est, 10.0);
    }

    #[test]
    fn space_and_name() {
        let cs = CountSketch::with_total_buckets(1000, 5, 1);
        assert_eq!(cs.width(), 200);
        assert_eq!(cs.depth(), 5);
        assert_eq!(cs.space_bytes(), 4000);
        assert_eq!(cs.name(), "count-sketch");
    }

    #[test]
    fn zero_count_add_is_noop() {
        let mut cs = CountSketch::new(8, 2, 1);
        cs.add(ElementId(1), 0);
        assert_eq!(cs.query_signed(ElementId(1)), 0.0);
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_panics() {
        let _ = CountSketch::new(8, 0, 1);
    }

    #[test]
    fn merged_sketches_equal_sequential_processing() {
        let stream = skewed_stream(400, 12_000, 6);
        let mut sequential = CountSketch::new(256, 5, 3);
        sequential.update_stream(&stream);

        let mut merged = CountSketch::new(256, 5, 3);
        let mut shards = [
            merged.clone_empty(),
            merged.clone_empty(),
            merged.clone_empty(),
        ];
        for arrival in stream.iter() {
            shards[(arrival.id.raw() % 3) as usize].add(arrival.id, 1);
        }
        for shard in &shards {
            merged.merge(shard);
        }
        for id in 0..500u64 {
            assert_eq!(
                merged.query_signed(ElementId(id)),
                sequential.query_signed(ElementId(id)),
                "estimate mismatch for {id}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "identical configuration")]
    fn merging_mismatched_sketches_panics() {
        let mut a = CountSketch::new(32, 2, 1);
        let b = CountSketch::new(32, 2, 2);
        a.merge(&b);
    }

    #[test]
    fn folded_sketch_equals_directly_built_smaller_sketch() {
        let stream = skewed_stream(300, 12_000, 17);
        let mut wide = CountSketch::new(512, 5, 23);
        let mut narrow = CountSketch::new(64, 5, 23);
        for element in stream.iter() {
            wide.add(element.id, 1);
            narrow.add(element.id, 1);
        }
        wide.fold_to_width(64);
        assert_eq!(wide.width(), 64);
        assert_eq!(wide.total_updates(), narrow.total_updates());
        for id in 0..400u64 {
            assert_eq!(
                wide.query_signed(ElementId(id)),
                narrow.query_signed(ElementId(id)),
                "folded estimate diverged for {id}"
            );
        }
    }
}
