//! Zipfian sampling over ranked items.
//!
//! The paper's real-world workload (search queries) follows the Zipfian law:
//! the `r`-th most popular item has probability proportional to `1/r^s`.
//! [`ZipfSampler`] draws ranks from that law in `O(log n)` per sample using a
//! precomputed cumulative table, which is fast enough for the multi-million
//! arrival streams the experiments replay.

use rand::Rng;

/// A sampler over ranks `0..n` with `P(rank = r) ∝ 1/(r+1)^s`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
    exponent: f64,
}

impl ZipfSampler {
    /// Creates a sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(exponent >= 0.0, "exponent must be non-negative");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(exponent);
            cumulative.push(total);
        }
        ZipfSampler {
            cumulative,
            exponent,
        }
    }

    /// Number of ranks.
    #[inline]
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Returns `true` if the sampler has no ranks (never: `new` rejects 0).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// The exponent `s`.
    #[inline]
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Probability of drawing rank `r`.
    pub fn probability(&self, rank: usize) -> f64 {
        let total = *self.cumulative.last().unwrap();
        let weight = 1.0 / ((rank + 1) as f64).powf(self.exponent);
        weight / total
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let total = *self.cumulative.last().unwrap();
        let u: f64 = rng.gen_range(0.0..total);
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.len() - 1)
    }

    /// Expected number of occurrences of rank `r` in a stream of
    /// `num_arrivals` samples.
    pub fn expected_count(&self, rank: usize, num_arrivals: usize) -> f64 {
        self.probability(rank) * num_arrivals as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probabilities_sum_to_one_and_decrease_with_rank() {
        let z = ZipfSampler::new(100, 1.0);
        let total: f64 = (0..100).map(|r| z.probability(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for r in 1..100 {
            assert!(z.probability(r) <= z.probability(r - 1));
        }
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for r in 0..10 {
            assert!((z.probability(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn empirical_frequencies_match_probabilities() {
        let z = ZipfSampler::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let mut counts = vec![0usize; 50];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        // Check the head ranks are within 10% of expectation.
        for (r, &count) in counts.iter().enumerate().take(5) {
            let expected = z.expected_count(r, n);
            let observed = count as f64;
            let rel = (observed - expected).abs() / expected;
            assert!(
                rel < 0.1,
                "rank {r}: observed {observed}, expected {expected}"
            );
        }
        // Rank 0 should be roughly twice as frequent as rank 1 for s = 1.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn samples_cover_valid_range_only() {
        let z = ZipfSampler::new(7, 1.5);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 7);
        }
        assert_eq!(z.len(), 7);
        assert!(!z.is_empty());
        assert_eq!(z.exponent(), 1.5);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = ZipfSampler::new(0, 1.0);
    }
}
