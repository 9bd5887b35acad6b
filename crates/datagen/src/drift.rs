//! Drifting workloads: rotating Zipf popularity.
//!
//! The paper trains the hashing scheme once on a stream prefix and assumes
//! the arrival distribution is stationary. Production streams are not: the
//! popular set rotates. [`DriftingWorkload`] models that as a piecewise
//! Zipf law — within an epoch arrivals follow a fixed Zipf(`exponent`) over
//! the universe, and at every epoch boundary the rank→element mapping
//! rotates by [`DriftConfig::rotation`] positions, so yesterday's heavy
//! hitters cool down at a controllable rate (`rotation = 0` is the static
//! workload, `rotation = universe` reshuffles completely every epoch).
//!
//! Every epoch draws from its own seed derived from the base seed, so
//! epochs can be generated independently, in any order, from any thread —
//! drift tests stay reproducible without `--test-threads=1`.

use crate::zipf::ZipfSampler;
use opthash_stream::{Stream, StreamElement};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of a [`DriftingWorkload`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Element universe size.
    pub universe: usize,
    /// Zipf exponent of the within-epoch popularity law.
    pub exponent: f64,
    /// Arrivals per epoch.
    pub epoch_len: usize,
    /// Number of epochs.
    pub epochs: usize,
    /// How many ranks the popularity mapping rotates at each epoch
    /// boundary; the drift rate. `0` keeps the workload stationary.
    pub rotation: usize,
    /// Base seed; epoch `e` derives its own independent RNG from it.
    pub seed: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            universe: 10_000,
            exponent: 1.1,
            epoch_len: 50_000,
            epochs: 4,
            rotation: 2_500,
            seed: 42,
        }
    }
}

/// A deterministic generator of rotating-Zipf drifting traffic.
#[derive(Debug, Clone)]
pub struct DriftingWorkload {
    config: DriftConfig,
    sampler: ZipfSampler,
}

impl DriftingWorkload {
    /// Builds the workload's sampler.
    pub fn new(config: DriftConfig) -> Self {
        assert!(config.universe > 0, "need a non-empty universe");
        assert!(config.epoch_len > 0, "need non-empty epochs");
        DriftingWorkload {
            sampler: ZipfSampler::new(config.universe, config.exponent),
            config,
        }
    }

    /// The workload configuration.
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }

    /// The element holding Zipf rank `rank` during epoch `epoch`.
    pub fn id_at(&self, epoch: usize, rank: usize) -> u64 {
        ((rank + epoch.wrapping_mul(self.config.rotation)) % self.config.universe) as u64
    }

    /// Expected arrival probability of element `id` during `epoch` (the
    /// Zipf probability of the rank it currently holds).
    pub fn probability_at(&self, epoch: usize, id: u64) -> f64 {
        let universe = self.config.universe;
        let shift = (epoch.wrapping_mul(self.config.rotation)) % universe;
        let rank = (id as usize + universe - shift) % universe;
        self.sampler.probability(rank)
    }

    /// The arrivals of one epoch, deterministic in `(seed, epoch)` alone —
    /// independent of which other epochs were generated before.
    pub fn epoch_arrivals(&self, epoch: usize) -> Vec<StreamElement> {
        let mut rng = StdRng::seed_from_u64(self.epoch_seed(epoch));
        (0..self.config.epoch_len)
            .map(|_| {
                let rank = self.sampler.sample(&mut rng);
                StreamElement::without_features(self.id_at(epoch, rank))
            })
            .collect()
    }

    /// The arrivals of one epoch as a [`Stream`] (for training prefixes).
    pub fn epoch_stream(&self, epoch: usize) -> Stream {
        Stream::from_arrivals(self.epoch_arrivals(epoch))
    }

    /// All epochs' arrivals, concatenated in epoch order.
    pub fn arrivals(&self) -> Vec<StreamElement> {
        (0..self.config.epochs)
            .flat_map(|epoch| self.epoch_arrivals(epoch))
            .collect()
    }

    /// The derived RNG seed of epoch `epoch`.
    fn epoch_seed(&self, epoch: usize) -> u64 {
        // SplitMix-style spread so epochs 0, 1, 2… land far apart in seed
        // space even for adjacent base seeds.
        self.config
            .seed
            .wrapping_add((epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn epochs_are_independently_deterministic() {
        let workload = DriftingWorkload::new(DriftConfig {
            epoch_len: 2_000,
            ..DriftConfig::default()
        });
        // Generating epoch 2 alone equals generating it after 0 and 1.
        let alone = workload.epoch_arrivals(2);
        let _ = workload.epoch_arrivals(0);
        let _ = workload.epoch_arrivals(1);
        assert_eq!(alone, workload.epoch_arrivals(2));
        // And a clone produces identical traffic.
        assert_eq!(alone, workload.clone().epoch_arrivals(2));
    }

    #[test]
    fn rotation_moves_the_hot_set() {
        let config = DriftConfig {
            universe: 1_000,
            epoch_len: 20_000,
            epochs: 2,
            rotation: 500,
            exponent: 1.3,
            seed: 7,
        };
        let workload = DriftingWorkload::new(config);
        let counts = |epoch: usize| {
            let mut c: HashMap<u64, usize> = HashMap::new();
            for a in workload.epoch_arrivals(epoch) {
                *c.entry(a.id.raw()).or_default() += 1;
            }
            c
        };
        let first = counts(0);
        let second = counts(1);
        // Rank 0 holds id 0 in epoch 0 and id 500 in epoch 1.
        assert_eq!(workload.id_at(0, 0), 0);
        assert_eq!(workload.id_at(1, 0), 500);
        assert!(first[&0] > second.get(&0).copied().unwrap_or(0) * 2);
        assert!(second[&500] > first.get(&500).copied().unwrap_or(0) * 2);
    }

    #[test]
    fn zero_rotation_is_stationary() {
        let workload = DriftingWorkload::new(DriftConfig {
            universe: 100,
            epoch_len: 1_000,
            epochs: 3,
            rotation: 0,
            ..DriftConfig::default()
        });
        for epoch in 0..3 {
            assert_eq!(workload.id_at(epoch, 17), 17);
            assert_eq!(
                workload.probability_at(epoch, 0),
                workload.probability_at(0, 0)
            );
        }
    }

    #[test]
    fn probability_inverts_the_rotation() {
        let workload = DriftingWorkload::new(DriftConfig {
            universe: 1_000,
            rotation: 300,
            ..DriftConfig::default()
        });
        for epoch in 0..5 {
            for rank in [0usize, 1, 10, 999] {
                let id = workload.id_at(epoch, rank);
                assert_eq!(
                    workload.probability_at(epoch, id),
                    workload.sampler.probability(rank)
                );
            }
        }
    }

    #[test]
    fn arrivals_concatenate_epochs() {
        let workload = DriftingWorkload::new(DriftConfig {
            epoch_len: 100,
            epochs: 3,
            ..DriftConfig::default()
        });
        assert_eq!(workload.arrivals().len(), 300);
        assert_eq!(workload.epoch_stream(0).len(), 100);
    }
}
