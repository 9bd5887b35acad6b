//! The Count-Min Sketch (`count-min` baseline).
//!
//! A `width × depth` grid of counters; each arrival increments one counter
//! per row (level) chosen by that row's hash function, and a point query
//! returns the minimum counter over the rows (Section 2.1). The estimate
//! never under-counts, and with probability `1 − e^{-depth}` the
//! over-estimate is at most `(e/width)·‖f‖₁`.
//!
//! The optional [`UpdatePolicy::Conservative`] variant only increments the
//! counters that currently equal the minimum; it is a standard accuracy
//! optimization and is used as an ablation in the benchmark harness.

use crate::hashing::HashFamily;
use opthash_stream::{ElementId, FrequencyEstimator, SpaceReport, StreamElement};

/// How counter updates are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdatePolicy {
    /// Increment every level's counter (the textbook Count-Min update).
    #[default]
    Standard,
    /// Conservative update: only increment counters currently equal to the
    /// minimum estimate. Still never under-estimates, but over-estimates less.
    Conservative,
}

/// The Count-Min Sketch.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    policy: UpdatePolicy,
    hashes: HashFamily,
    /// Row-major `depth × width` counter grid.
    counters: Vec<u64>,
    /// Total number of updates applied (`‖f‖₁` seen so far).
    total_updates: u64,
}

impl CountMinSketch {
    /// Creates a sketch with the given `width` (buckets per level) and
    /// `depth` (number of levels), seeded for reproducible hashing.
    pub fn new(width: usize, depth: usize, seed: u64) -> Self {
        Self::with_policy(width, depth, seed, UpdatePolicy::Standard)
    }

    /// Creates a sketch with an explicit [`UpdatePolicy`].
    pub fn with_policy(width: usize, depth: usize, seed: u64, policy: UpdatePolicy) -> Self {
        assert!(width > 0, "width must be positive");
        assert!(depth > 0, "depth must be positive");
        let cells = width.checked_mul(depth).expect("grid size overflows usize");
        CountMinSketch {
            width,
            depth,
            policy,
            hashes: HashFamily::new(depth, width, seed),
            counters: vec![0; cells],
            total_updates: 0,
        }
    }

    /// Creates a sketch that uses `total_buckets` counters split across
    /// `depth` levels — the sizing used when comparing at equal memory.
    pub fn with_total_buckets(total_buckets: usize, depth: usize, seed: u64) -> Self {
        assert!(depth > 0, "depth must be positive");
        let width = (total_buckets / depth).max(1);
        Self::new(width, depth, seed)
    }

    /// Number of buckets per level.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of levels.
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total number of counters (`width × depth`).
    #[inline]
    pub fn total_buckets(&self) -> usize {
        self.width * self.depth
    }

    /// Total updates applied so far.
    #[inline]
    pub fn total_updates(&self) -> u64 {
        self.total_updates
    }

    #[inline]
    fn cell(&self, level: usize, bucket: usize) -> usize {
        level * self.width + bucket
    }

    /// Adds `count` occurrences of `id`.
    pub fn add(&mut self, id: ElementId, count: u64) {
        if count == 0 {
            return;
        }
        self.total_updates += count;
        match self.policy {
            UpdatePolicy::Standard => {
                for level in 0..self.depth {
                    let b = self.hashes.hash(level, id.raw());
                    let cell = self.cell(level, b);
                    self.counters[cell] += count;
                }
            }
            UpdatePolicy::Conservative => {
                let current = self.query(id);
                let target = current + count;
                for level in 0..self.depth {
                    let b = self.hashes.hash(level, id.raw());
                    let cell = self.cell(level, b);
                    if self.counters[cell] < target {
                        self.counters[cell] = target;
                    }
                }
            }
        }
    }

    /// Adds a pre-aggregated batch of weighted updates, level by level.
    ///
    /// For the standard policy the final state is identical to calling
    /// [`CountMinSketch::add`] per entry (each cell receives the same sum),
    /// but the row-major order keeps one `width`-counter row cache-resident
    /// across the whole batch instead of striding all `depth` rows per
    /// update, and hoists the level's hash coefficients out of the inner
    /// loop. The conservative policy is order-dependent across rows (each
    /// update needs the cross-row minimum first), so it falls back to the
    /// sequential per-update loop.
    ///
    /// The iterator must be `Clone` because it is replayed once per level.
    /// Zero-count entries are skipped, matching [`CountMinSketch::add`].
    pub fn add_batch<I>(&mut self, updates: I)
    where
        I: Iterator<Item = (ElementId, u64)> + Clone,
    {
        match self.policy {
            UpdatePolicy::Standard => {
                // Settle the batch mass in its own pass: folding it into a
                // level loop would commit only the last level's sum — and
                // nothing at all at depth 0.
                let mut mass = 0u64;
                for (_, count) in updates.clone() {
                    mass += count;
                }
                for level in 0..self.depth {
                    let hash = self.hashes.function(level).clone();
                    let row = &mut self.counters[level * self.width..(level + 1) * self.width];
                    for (id, count) in updates.clone() {
                        if count == 0 {
                            continue;
                        }
                        row[hash.hash(id.raw())] += count;
                    }
                }
                self.total_updates += mass;
            }
            UpdatePolicy::Conservative => {
                for (id, count) in updates {
                    self.add(id, count);
                }
            }
        }
    }

    /// Point query: minimum counter over all levels.
    pub fn query(&self, id: ElementId) -> u64 {
        (0..self.depth)
            .map(|level| {
                let b = self.hashes.hash(level, id.raw());
                self.counters[self.cell(level, b)]
            })
            .min()
            .unwrap_or(0)
    }

    /// Creates a sketch with the same dimensions, hash functions and update
    /// policy but every counter zeroed — the shard-local state used by the
    /// sharded ingest engine. `O(width · depth)`.
    pub fn clone_empty(&self) -> Self {
        CountMinSketch {
            width: self.width,
            depth: self.depth,
            policy: self.policy,
            hashes: self.hashes.clone(),
            counters: vec![0; self.width * self.depth],
            total_updates: 0,
        }
    }

    /// Merges another sketch of the *same configuration* (dimensions, seed
    /// and policy) into this one by element-wise counter addition.
    /// `O(width · depth)`.
    ///
    /// For [`UpdatePolicy::Standard`] the sketch is a linear transform of the
    /// frequency vector, so merging sketches built over disjoint sub-streams
    /// yields exactly the sketch of the concatenated stream. For
    /// [`UpdatePolicy::Conservative`] addition still never under-estimates,
    /// but the merged sketch may over-estimate more than a sequentially
    /// built one (conservative updates do not commute).
    ///
    /// # Panics
    ///
    /// Panics if the two sketches have different dimensions or hash
    /// functions.
    pub fn merge(&mut self, other: &CountMinSketch) {
        assert!(
            self.width == other.width
                && self.depth == other.depth
                && self.policy == other.policy
                && self.hashes == other.hashes,
            "can only merge Count-Min sketches of identical configuration"
        );
        for (c, &o) in self.counters.iter_mut().zip(&other.counters) {
            *c += o;
        }
        self.total_updates += other.total_updates;
    }

    /// Folds the sketch down to `new_width` buckets per level, where
    /// `new_width` must divide the current width: counters whose bucket
    /// indices are congruent modulo `new_width` are summed, and every hash
    /// function is restricted to the smaller range (same coefficients).
    ///
    /// Because `(h mod width) mod new_width = h mod new_width` whenever
    /// `new_width | width`, the folded sketch is **exactly** the sketch that
    /// the same update stream would have produced at `new_width` directly
    /// (for [`UpdatePolicy::Standard`]; conservative updates are nonlinear,
    /// so a folded conservative sketch may over-estimate more than a
    /// directly-built one, but still never under-estimates). No counted mass
    /// is lost — [`CountMinSketch::total_updates`] is unchanged — only
    /// precision: the error bound widens from `e/width` to `e/new_width`.
    ///
    /// This is the memory-governor's degradation primitive: a cold
    /// estimator's footprint halves (or better) in `O(width · depth)` time
    /// without replaying its stream.
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
        let mut folded = vec![0u64; new_width * self.depth];
        for level in 0..self.depth {
            let row = &self.counters[level * self.width..(level + 1) * self.width];
            let out = &mut folded[level * new_width..(level + 1) * new_width];
            for (bucket, &count) in row.iter().enumerate() {
                out[bucket % new_width] += count;
            }
        }
        self.counters = folded;
        self.hashes = self.hashes.with_range(new_width);
        self.width = new_width;
    }

    /// The `(ε, δ)` guarantee of this configuration: the additive error is at
    /// most `ε·‖f‖₁` with probability `1 − δ`, where `ε = e/width` and
    /// `δ = e^{-depth}` (Section 2.1).
    pub fn error_guarantee(&self) -> (f64, f64) {
        let epsilon = std::f64::consts::E / self.width as f64;
        let delta = (-(self.depth as f64)).exp();
        (epsilon, delta)
    }

    /// Itemized memory usage.
    pub fn space_report(&self) -> SpaceReport {
        Self::space_for(self.width, self.depth)
    }

    /// Itemized memory usage of a `width × depth` sketch, without building
    /// one.
    pub fn space_for(width: usize, depth: usize) -> SpaceReport {
        SpaceReport {
            counters: width * depth,
            ..SpaceReport::default()
        }
    }
}

impl FrequencyEstimator for CountMinSketch {
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
        "count-min"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opthash_stream::{FrequencyVector, Stream};

    fn zipf_stream(distinct: u64, arrivals: usize, seed: u64) -> Stream {
        // Simple deterministic Zipf-ish stream without extra dependencies:
        // element k appears roughly proportional to 1/(k+1).
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
    fn never_underestimates() {
        let stream = zipf_stream(200, 5_000, 11);
        let truth = FrequencyVector::from_stream(&stream);
        let mut cms = CountMinSketch::new(64, 4, 1);
        cms.update_stream(&stream);
        for (id, f) in truth.iter() {
            assert!(cms.query(id) >= f, "under-estimate for {id}");
        }
    }

    #[test]
    fn conservative_update_never_underestimates_and_is_tighter() {
        let stream = zipf_stream(300, 8_000, 5);
        let truth = FrequencyVector::from_stream(&stream);
        let mut std_cms = CountMinSketch::with_policy(32, 3, 1, UpdatePolicy::Standard);
        let mut cons_cms = CountMinSketch::with_policy(32, 3, 1, UpdatePolicy::Conservative);
        std_cms.update_stream(&stream);
        cons_cms.update_stream(&stream);
        let mut std_err = 0.0;
        let mut cons_err = 0.0;
        for (id, f) in truth.iter() {
            assert!(cons_cms.query(id) >= f);
            std_err += (std_cms.query(id) - f) as f64;
            cons_err += (cons_cms.query(id) - f) as f64;
        }
        assert!(
            cons_err <= std_err,
            "conservative update should not be worse: {cons_err} vs {std_err}"
        );
    }

    #[test]
    fn exact_when_width_exceeds_distinct_support_is_likely() {
        // With width much larger than the number of distinct elements and
        // depth 4, collisions in all four rows simultaneously are essentially
        // impossible, so the estimate is exact.
        let stream = Stream::from_ids([1u64, 1, 2, 3, 3, 3]);
        let mut cms = CountMinSketch::new(4096, 4, 42);
        cms.update_stream(&stream);
        assert_eq!(cms.query(ElementId(1)), 2);
        assert_eq!(cms.query(ElementId(2)), 1);
        assert_eq!(cms.query(ElementId(3)), 3);
        assert_eq!(cms.query(ElementId(999)), 0);
    }

    #[test]
    fn additive_error_respects_epsilon_bound_on_average() {
        let stream = zipf_stream(500, 20_000, 3);
        let truth = FrequencyVector::from_stream(&stream);
        let mut cms = CountMinSketch::new(256, 4, 8);
        cms.update_stream(&stream);
        let (epsilon, _) = cms.error_guarantee();
        let bound = epsilon * truth.total() as f64;
        // the (ε, δ) guarantee is per-query with prob 1-δ; check the vast
        // majority of queries respect it.
        let violations = truth
            .iter()
            .filter(|&(id, f)| (cms.query(id) - f) as f64 > bound)
            .count();
        assert!(
            violations <= truth.support_size() / 20,
            "too many violations: {violations}"
        );
    }

    #[test]
    fn add_with_zero_count_is_a_noop() {
        let mut cms = CountMinSketch::new(16, 2, 1);
        cms.add(ElementId(5), 0);
        assert_eq!(cms.total_updates(), 0);
        assert_eq!(cms.query(ElementId(5)), 0);
    }

    #[test]
    fn space_accounting_counts_all_cells() {
        let cms = CountMinSketch::new(250, 4, 1);
        assert_eq!(cms.total_buckets(), 1000);
        assert_eq!(cms.space_bytes(), 4_000);
        assert_eq!(cms.name(), "count-min");
    }

    #[test]
    fn with_total_buckets_divides_across_depth() {
        let cms = CountMinSketch::with_total_buckets(1000, 4, 1);
        assert_eq!(cms.width(), 250);
        assert_eq!(cms.depth(), 4);
        // width never drops below 1
        let tiny = CountMinSketch::with_total_buckets(2, 6, 1);
        assert_eq!(tiny.width(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let stream = zipf_stream(100, 2_000, 9);
        let mut a = CountMinSketch::new(64, 3, 123);
        let mut b = CountMinSketch::new(64, 3, 123);
        a.update_stream(&stream);
        b.update_stream(&stream);
        for (id, _) in FrequencyVector::from_stream(&stream).iter() {
            assert_eq!(a.query(id), b.query(id));
        }
    }

    #[test]
    fn error_guarantee_formula() {
        let cms = CountMinSketch::new(272, 3, 1);
        let (eps, delta) = cms.error_guarantee();
        assert!((eps - std::f64::consts::E / 272.0).abs() < 1e-12);
        assert!((delta - (-3.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        let _ = CountMinSketch::new(0, 2, 1);
    }

    #[test]
    fn merged_standard_sketches_equal_sequential_processing() {
        let stream = zipf_stream(300, 10_000, 21);
        let mut sequential = CountMinSketch::new(64, 4, 5);
        sequential.update_stream(&stream);

        // Partition the stream by ID parity and process each half in a fork.
        let mut merged = CountMinSketch::new(64, 4, 5);
        let mut even = merged.clone_empty();
        let mut odd = merged.clone_empty();
        for arrival in stream.iter() {
            if arrival.id.raw() % 2 == 0 {
                even.add(arrival.id, 1);
            } else {
                odd.add(arrival.id, 1);
            }
        }
        merged.merge(&even);
        merged.merge(&odd);

        assert_eq!(merged.total_updates(), sequential.total_updates());
        for id in 0..400u64 {
            assert_eq!(merged.query(ElementId(id)), sequential.query(ElementId(id)));
        }
    }

    #[test]
    fn clone_empty_preserves_configuration_and_zeroes_state() {
        let mut original = CountMinSketch::with_policy(32, 3, 7, UpdatePolicy::Conservative);
        original.add(ElementId(1), 5);
        let empty = original.clone_empty();
        assert_eq!(empty.width(), 32);
        assert_eq!(empty.depth(), 3);
        assert_eq!(empty.total_updates(), 0);
        assert_eq!(empty.query(ElementId(1)), 0);
    }

    #[test]
    fn conservative_merge_never_underestimates() {
        let stream = zipf_stream(200, 5_000, 9);
        let truth = FrequencyVector::from_stream(&stream);
        let base = CountMinSketch::with_policy(48, 3, 2, UpdatePolicy::Conservative);
        let mut merged = base.clone();
        let mut low = base.clone_empty();
        let mut high = base.clone_empty();
        for arrival in stream.iter() {
            if arrival.id.raw() < 100 {
                low.add(arrival.id, 1);
            } else {
                high.add(arrival.id, 1);
            }
        }
        merged.merge(&low);
        merged.merge(&high);
        for (id, f) in truth.iter() {
            assert!(merged.query(id) >= f, "under-estimate for {id}");
        }
    }

    #[test]
    #[should_panic(expected = "identical configuration")]
    fn merging_mismatched_sketches_panics() {
        let mut a = CountMinSketch::new(32, 3, 1);
        let b = CountMinSketch::new(64, 3, 1);
        a.merge(&b);
    }

    #[test]
    fn folded_sketch_equals_directly_built_smaller_sketch() {
        // `PairwiseHash::draw` consumes the same RNG draws regardless of its
        // range, so two sketches with the same seed share coefficients at any
        // width — folding must therefore reproduce the narrow build exactly.
        let stream = zipf_stream(400, 15_000, 13);
        let mut wide = CountMinSketch::new(1024, 4, 99);
        let mut narrow = CountMinSketch::new(128, 4, 99);
        wide.update_stream(&stream);
        narrow.update_stream(&stream);
        wide.fold_to_width(128);
        assert_eq!(wide.width(), 128);
        assert_eq!(wide.total_updates(), narrow.total_updates());
        for id in 0..500u64 {
            assert_eq!(
                wide.query(ElementId(id)),
                narrow.query(ElementId(id)),
                "folded estimate diverged for {id}"
            );
        }
    }

    #[test]
    fn fold_preserves_mass_and_never_underestimates() {
        let stream = zipf_stream(300, 10_000, 4);
        let truth = FrequencyVector::from_stream(&stream);
        let mut cms = CountMinSketch::new(512, 4, 7);
        cms.update_stream(&stream);
        let mass = cms.total_updates();
        cms.fold_to_width(64);
        cms.fold_to_width(16);
        assert_eq!(cms.total_updates(), mass, "fold must not lose mass");
        for (id, f) in truth.iter() {
            assert!(cms.query(id) >= f, "under-estimate for {id} after folds");
        }
        // Folding to the current width is a no-op.
        cms.fold_to_width(16);
        assert_eq!(cms.width(), 16);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn fold_to_non_divisor_width_panics() {
        let mut cms = CountMinSketch::new(100, 2, 1);
        cms.fold_to_width(33);
    }
}
