//! Group-structured synthetic streams (Section 6.1 of the paper).
//!
//! The universe is split into `G` groups `G_1 … G_G` of exponentially
//! increasing sizes `2^{G0+1}, …, 2^{G0+G}`. Each group is associated with a
//! `p`-dimensional Gaussian (mean drawn uniformly from `[-10, 10]^p`,
//! identity covariance) from which its elements' features are drawn. Arrivals
//! first pick a group with probability proportional to `1/g`, then an
//! element uniformly inside the group — so the *small* groups contain the
//! heavy hitters. When generating the observed prefix, only a fraction `g0`
//! of each group's elements is eligible to appear, modelling elements that
//! only show up later in the stream.

use opthash_stream::{ElementId, Features, Stream, StreamElement};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the group-based generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupConfig {
    /// Number of groups `G`; group `g ∈ [1, G]` has `2^{G0+g}` elements.
    pub num_groups: usize,
    /// Exponent offset `G0` determining the smallest group size
    /// (`2^{G0+1}`); the paper uses `G0 = 2`.
    pub smallest_group_exponent: u32,
    /// Feature dimensionality `p`; the paper uses 2.
    pub feature_dim: usize,
    /// Fraction `g0 ∈ (0, 1]` of each group's elements eligible to appear in
    /// the prefix.
    pub fraction_seen: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            num_groups: 6,
            smallest_group_exponent: 2,
            feature_dim: 2,
            fraction_seen: 0.5,
            seed: 0,
        }
    }
}

impl GroupConfig {
    /// Convenience constructor fixing only the number of groups, matching the
    /// experiments that sweep `G`.
    pub fn with_groups(num_groups: usize) -> Self {
        GroupConfig {
            num_groups,
            ..GroupConfig::default()
        }
    }

    /// Total number of elements in the universe:
    /// `Σ_{g=1..G} 2^{G0+g} = 2^{G0+G+1} − 2^{G0+1}`.
    pub fn universe_size(&self) -> usize {
        (1..=self.num_groups)
            .map(|g| 1usize << (self.smallest_group_exponent + g as u32))
            .sum()
    }

    /// The prefix length `|S0| = 10·2^G` the paper uses.
    pub fn default_prefix_len(&self) -> usize {
        10 * (1usize << self.num_groups)
    }
}

/// One element of the synthetic universe.
#[derive(Debug, Clone)]
pub struct GroupElement {
    /// Unique ID.
    pub id: ElementId,
    /// Index of the group the element belongs to (1-based, as in the paper).
    pub group: usize,
    /// Feature vector drawn from the group's Gaussian.
    pub features: Features,
    /// Whether the element is eligible to appear in the prefix.
    pub eligible_in_prefix: bool,
}

/// A fully materialized synthetic universe plus its sampling distributions.
#[derive(Debug, Clone)]
pub struct GroupDataset {
    config: GroupConfig,
    elements: Vec<GroupElement>,
    /// Cumulative group-selection probabilities.
    group_cumulative: Vec<f64>,
    /// Element ID ranges per group: `group_ranges[g-1] = (start, end)` into
    /// `elements`.
    group_ranges: Vec<(usize, usize)>,
    /// Group means, for inspection/visualization.
    group_means: Vec<Vec<f64>>,
}

/// Draws a standard-normal sample via the Box–Muller transform.
fn standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl GroupDataset {
    /// Materializes the universe described by `config`.
    pub fn generate(config: GroupConfig) -> Self {
        assert!(config.num_groups > 0, "need at least one group");
        assert!(
            config.fraction_seen > 0.0 && config.fraction_seen <= 1.0,
            "fraction_seen must lie in (0, 1]"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut elements = Vec::with_capacity(config.universe_size());
        let mut group_ranges = Vec::with_capacity(config.num_groups);
        let mut group_means = Vec::with_capacity(config.num_groups);
        let mut next_id = 0u64;

        for g in 1..=config.num_groups {
            let size = 1usize << (config.smallest_group_exponent + g as u32);
            let mean: Vec<f64> = (0..config.feature_dim)
                .map(|_| rng.gen_range(-10.0..10.0))
                .collect();
            group_means.push(mean.clone());
            let start = elements.len();
            // Mark the first ⌈g0·|Gg|⌉ generated elements of each group as
            // prefix-eligible; membership is random because features are iid.
            let eligible = ((size as f64) * config.fraction_seen).ceil() as usize;
            for idx in 0..size {
                let features: Vec<f64> = mean
                    .iter()
                    .map(|&m| m + standard_normal(&mut rng))
                    .collect();
                elements.push(GroupElement {
                    id: ElementId(next_id),
                    group: g,
                    features: Features::new(features),
                    eligible_in_prefix: idx < eligible,
                });
                next_id += 1;
            }
            group_ranges.push((start, elements.len()));
        }

        // Group arrival probabilities ∝ 1/g.
        let mut group_cumulative = Vec::with_capacity(config.num_groups);
        let mut total = 0.0;
        for g in 1..=config.num_groups {
            total += 1.0 / g as f64;
            group_cumulative.push(total);
        }

        GroupDataset {
            config,
            elements,
            group_cumulative,
            group_ranges,
            group_means,
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &GroupConfig {
        &self.config
    }

    /// All universe elements.
    pub fn elements(&self) -> &[GroupElement] {
        &self.elements
    }

    /// Number of elements in the universe.
    pub fn universe_size(&self) -> usize {
        self.elements.len()
    }

    /// The Gaussian mean of each group (1-based group `g` is at index
    /// `g − 1`).
    pub fn group_means(&self) -> &[Vec<f64>] {
        &self.group_means
    }

    /// The group of an element.
    pub fn group_of(&self, id: ElementId) -> Option<usize> {
        self.elements.get(id.raw() as usize).map(|e| e.group)
    }

    /// The element (ID + features) for a given ID.
    pub fn stream_element(&self, id: ElementId) -> Option<StreamElement> {
        self.elements
            .get(id.raw() as usize)
            .map(|e| StreamElement::new(e.id, e.features.clone()))
    }

    fn sample_group(&self, rng: &mut StdRng) -> usize {
        let total = *self.group_cumulative.last().unwrap();
        let u: f64 = rng.gen_range(0.0..total);
        self.group_cumulative.partition_point(|&c| c < u) + 1
    }

    fn sample_arrival(&self, rng: &mut StdRng, prefix_only: bool) -> &GroupElement {
        loop {
            let g = self.sample_group(rng);
            let (start, end) = self.group_ranges[g - 1];
            if prefix_only {
                // Only a fraction g0 of the group is eligible; eligible
                // elements occupy the front of the range.
                let size = end - start;
                let eligible = ((size as f64) * self.config.fraction_seen).ceil() as usize;
                if eligible == 0 {
                    continue;
                }
                let idx = start + rng.gen_range(0..eligible);
                return &self.elements[idx];
            }
            let idx = rng.gen_range(start..end);
            return &self.elements[idx];
        }
    }

    /// Generates the observed stream prefix `S0` of `len` arrivals: only the
    /// prefix-eligible fraction of each group can appear.
    pub fn generate_prefix(&self, len: usize, seed: u64) -> Stream {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                let e = self.sample_arrival(&mut rng, true);
                StreamElement::new(e.id, e.features.clone())
            })
            .collect()
    }

    /// Generates `len` post-prefix arrivals: the whole universe can appear.
    pub fn generate_stream(&self, len: usize, seed: u64) -> Stream {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                let e = self.sample_arrival(&mut rng, false);
                StreamElement::new(e.id, e.features.clone())
            })
            .collect()
    }

    /// Generates the paper's standard experiment pair: a prefix of
    /// `10·2^G` arrivals and a continuation of `10×` that length
    /// (`|S| = 10·|S0|` as used in Experiments 4 and 5).
    pub fn generate_experiment_streams(&self, seed: u64) -> (Stream, Stream) {
        let prefix_len = self.config.default_prefix_len();
        let prefix = self.generate_prefix(prefix_len, seed);
        let continuation = self.generate_stream(prefix_len * 10, seed.wrapping_add(1));
        (prefix, continuation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn universe_size_matches_formula() {
        let config = GroupConfig {
            num_groups: 10,
            smallest_group_exponent: 2,
            ..GroupConfig::default()
        };
        // sum_{g=1..10} 2^{2+g} = 2^3 + ... + 2^12 = 2^13 - 2^3 = 8184
        assert_eq!(config.universe_size(), 8184);
        let data = GroupDataset::generate(config);
        assert_eq!(data.universe_size(), 8184);
    }

    #[test]
    fn default_prefix_len_matches_paper() {
        let config = GroupConfig::with_groups(10);
        assert_eq!(config.default_prefix_len(), 10_240);
    }

    #[test]
    fn group_sizes_grow_exponentially() {
        let data = GroupDataset::generate(GroupConfig::with_groups(5));
        let mut sizes = vec![0usize; 5];
        for e in data.elements() {
            sizes[e.group - 1] += 1;
        }
        assert_eq!(sizes, vec![8, 16, 32, 64, 128]);
    }

    #[test]
    fn features_cluster_around_group_means() {
        let data = GroupDataset::generate(GroupConfig::with_groups(4));
        for e in data.elements() {
            let mean = &data.group_means()[e.group - 1];
            let dist: f64 = e
                .features
                .as_slice()
                .iter()
                .zip(mean)
                .map(|(x, m)| (x - m) * (x - m))
                .sum::<f64>()
                .sqrt();
            // 2-D standard normal: being more than 6 sigma away is absurd
            assert!(dist < 6.0, "element {} is {dist} away from its mean", e.id);
        }
    }

    #[test]
    fn small_groups_receive_more_arrivals_per_element() {
        let data = GroupDataset::generate(GroupConfig::with_groups(6));
        let stream = data.generate_stream(60_000, 7);
        let mut per_group = [0usize; 6];
        for arrival in stream.iter() {
            per_group[data.group_of(arrival.id).unwrap() - 1] += 1;
        }
        // group 1 has 8 elements and arrival weight 1; group 6 has 256
        // elements and weight 1/6: per-element intensity differs by ~32×.
        let intensity_1 = per_group[0] as f64 / 8.0;
        let intensity_6 = per_group[5] as f64 / 256.0;
        assert!(
            intensity_1 > intensity_6 * 10.0,
            "group 1 per-element intensity {intensity_1} vs group 6 {intensity_6}"
        );
    }

    #[test]
    fn prefix_only_contains_eligible_elements() {
        let config = GroupConfig {
            fraction_seen: 0.33,
            ..GroupConfig::with_groups(6)
        };
        let data = GroupDataset::generate(config);
        let prefix = data.generate_prefix(5_000, 3);
        for arrival in prefix.iter() {
            let e = &data.elements()[arrival.id.raw() as usize];
            assert!(e.eligible_in_prefix, "{} should not appear in prefix", e.id);
        }
        // and a full stream eventually contains ineligible elements too
        let full = data.generate_stream(5_000, 4);
        let saw_ineligible = full
            .iter()
            .any(|a| !data.elements()[a.id.raw() as usize].eligible_in_prefix);
        assert!(saw_ineligible);
    }

    #[test]
    fn eligible_count_respects_fraction() {
        let config = GroupConfig {
            fraction_seen: 0.5,
            ..GroupConfig::with_groups(5)
        };
        let data = GroupDataset::generate(config);
        let eligible = data
            .elements()
            .iter()
            .filter(|e| e.eligible_in_prefix)
            .count();
        assert_eq!(eligible, data.universe_size() / 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = GroupDataset::generate(GroupConfig::with_groups(4));
        let b = GroupDataset::generate(GroupConfig::with_groups(4));
        assert_eq!(a.elements().len(), b.elements().len());
        for (x, y) in a.elements().iter().zip(b.elements()) {
            assert_eq!(x.features, y.features);
        }
        let s1 = a.generate_prefix(100, 9);
        let s2 = b.generate_prefix(100, 9);
        let ids1: Vec<u64> = s1.iter().map(|e| e.id.raw()).collect();
        let ids2: Vec<u64> = s2.iter().map(|e| e.id.raw()).collect();
        assert_eq!(ids1, ids2);
    }

    #[test]
    fn experiment_streams_have_paper_lengths() {
        let data = GroupDataset::generate(GroupConfig::with_groups(4));
        let (prefix, continuation) = data.generate_experiment_streams(1);
        assert_eq!(prefix.len(), 160);
        assert_eq!(continuation.len(), 1_600);
    }

    #[test]
    fn stream_element_lookup() {
        let data = GroupDataset::generate(GroupConfig::with_groups(3));
        let e = data.stream_element(ElementId(0)).unwrap();
        assert_eq!(e.id, ElementId(0));
        assert_eq!(e.features.dim(), 2);
        assert!(data.stream_element(ElementId(1_000_000)).is_none());
        assert_eq!(data.group_of(ElementId(0)), Some(1));
    }

    #[test]
    fn ids_are_dense_and_unique() {
        let data = GroupDataset::generate(GroupConfig::with_groups(5));
        let ids: HashSet<u64> = data.elements().iter().map(|e| e.id.raw()).collect();
        assert_eq!(ids.len(), data.universe_size());
        assert!(ids.contains(&0));
        assert!(ids.contains(&(data.universe_size() as u64 - 1)));
    }

    #[test]
    #[should_panic(expected = "fraction_seen")]
    fn invalid_fraction_panics() {
        let _ = GroupDataset::generate(GroupConfig {
            fraction_seen: 0.0,
            ..GroupConfig::default()
        });
    }
}
