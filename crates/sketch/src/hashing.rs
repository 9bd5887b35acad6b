//! Seeded 2-universal hash families.
//!
//! The Count-Min Sketch and the Count Sketch rely on pairwise-independent
//! ("2-universal") hash functions. We use the classical Carter–Wegman
//! construction over the Mersenne prime `p = 2^61 − 1`: `h(x) = ((a·x + b)
//! mod p) mod w` with `a ∈ [1, p)`, `b ∈ [0, p)` drawn from a seeded RNG, so
//! every sketch is reproducible given its seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Mersenne prime 2^61 − 1 used as the hash field modulus.
pub const MERSENNE_61: u64 = (1 << 61) - 1;

/// Reduces `x` modulo the Mersenne prime 2^61 − 1 without division.
#[inline]
fn mod_mersenne(x: u128) -> u64 {
    // x = hi * 2^61 + lo  =>  x mod (2^61 - 1) = hi + lo (mod 2^61 - 1)
    let lo = (x & (MERSENNE_61 as u128)) as u64;
    let hi = (x >> 61) as u64;
    let mut r = lo.wrapping_add(hi);
    if r >= MERSENNE_61 {
        r -= MERSENNE_61;
    }
    r
}

/// A single pairwise-independent hash function mapping `u64` keys to
/// `[0, range)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairwiseHash {
    a: u64,
    b: u64,
    range: u64,
}

impl PairwiseHash {
    /// Draws a fresh hash function with the given output `range` from `rng`.
    pub fn draw(range: usize, rng: &mut impl Rng) -> Self {
        assert!(range > 0, "hash range must be positive");
        PairwiseHash {
            a: rng.gen_range(1..MERSENNE_61),
            b: rng.gen_range(0..MERSENNE_61),
            range: range as u64,
        }
    }

    /// Constructs a hash function from explicit coefficients (for tests).
    pub fn from_coefficients(a: u64, b: u64, range: usize) -> Self {
        assert!(range > 0, "hash range must be positive");
        assert!((1..MERSENNE_61).contains(&a), "a must lie in [1, p)");
        assert!(b < MERSENNE_61, "b must lie in [0, p)");
        PairwiseHash {
            a,
            b,
            range: range as u64,
        }
    }

    /// Hashes `key` into `[0, range)`.
    #[inline]
    pub fn hash(&self, key: u64) -> usize {
        let prod = (self.a as u128) * (key as u128) + (self.b as u128);
        (mod_mersenne(prod) % self.range) as usize
    }

    /// The output range of this function.
    #[inline]
    pub fn range(&self) -> usize {
        self.range as usize
    }

    /// The same hash function (identical coefficients) restricted to a
    /// smaller output `range` that divides the current one.
    ///
    /// Because the function is `((a·x + b) mod p) mod range`, and for any
    /// divisor `d` of `range` it holds that `(y mod range) mod d = y mod d`,
    /// the restricted function satisfies
    /// `restricted.hash(x) == self.hash(x) % d` for every key — the algebraic
    /// fact the sketch width-folding (governor degradation) relies on.
    ///
    /// # Panics
    ///
    /// Panics if `range` is zero or does not divide the current range.
    pub fn with_range(&self, range: usize) -> Self {
        assert!(range > 0, "hash range must be positive");
        assert!(
            (self.range as usize).is_multiple_of(range),
            "new range must divide the current range"
        );
        PairwiseHash {
            a: self.a,
            b: self.b,
            range: range as u64,
        }
    }
}

/// A ±1-valued pairwise-independent hash, used by the Count Sketch to decide
/// the sign with which an element contributes to its counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignHash {
    inner: PairwiseHash,
}

impl SignHash {
    /// Draws a fresh sign hash from `rng`.
    pub fn draw(rng: &mut impl Rng) -> Self {
        SignHash {
            inner: PairwiseHash::draw(2, rng),
        }
    }

    /// Returns `+1.0` or `-1.0` for the key.
    #[inline]
    pub fn sign(&self, key: u64) -> f64 {
        if self.inner.hash(key) == 0 {
            1.0
        } else {
            -1.0
        }
    }
}

/// A family of `depth` independent hash functions, one per sketch level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashFamily {
    functions: Vec<PairwiseHash>,
}

impl HashFamily {
    /// Draws `depth` independent functions with output `range`, seeded for
    /// reproducibility.
    pub fn new(depth: usize, range: usize, seed: u64) -> Self {
        assert!(depth > 0, "hash family depth must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        HashFamily {
            functions: (0..depth)
                .map(|_| PairwiseHash::draw(range, &mut rng))
                .collect(),
        }
    }

    /// Number of functions in the family.
    #[inline]
    pub fn depth(&self) -> usize {
        self.functions.len()
    }

    /// Hashes `key` with the `level`-th function.
    #[inline]
    pub fn hash(&self, level: usize, key: u64) -> usize {
        self.functions[level].hash(key)
    }

    /// The `level`-th function itself — lets bulk operations hoist the
    /// coefficient loads out of their inner loop.
    #[inline]
    pub fn function(&self, level: usize) -> &PairwiseHash {
        &self.functions[level]
    }

    /// Iterates over the per-level bucket indices for `key`.
    pub fn indices<'a>(&'a self, key: u64) -> impl Iterator<Item = usize> + 'a {
        self.functions.iter().map(move |h| h.hash(key))
    }

    /// The same family with every function restricted to `range` (which must
    /// divide each function's current range); see [`PairwiseHash::with_range`].
    pub fn with_range(&self, range: usize) -> Self {
        HashFamily {
            functions: self.functions.iter().map(|h| h.with_range(range)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mod_mersenne_matches_naive_modulo() {
        let cases: [u128; 6] = [
            0,
            1,
            MERSENNE_61 as u128,
            (MERSENNE_61 as u128) + 5,
            u64::MAX as u128,
            (u64::MAX as u128) * 1234567,
        ];
        for &x in &cases {
            assert_eq!(mod_mersenne(x) as u128, x % (MERSENNE_61 as u128), "x={x}");
        }
    }

    #[test]
    fn hash_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let h = PairwiseHash::draw(97, &mut rng);
        for key in 0..10_000u64 {
            assert!(h.hash(key) < 97);
        }
        assert_eq!(h.range(), 97);
    }

    #[test]
    fn hash_is_deterministic_given_coefficients() {
        let h = PairwiseHash::from_coefficients(12345, 678, 100);
        let first: Vec<usize> = (0..50).map(|k| h.hash(k)).collect();
        let second: Vec<usize> = (0..50).map(|k| h.hash(k)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn hash_distributes_roughly_uniformly() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = 50;
        let h = PairwiseHash::draw(w, &mut rng);
        let mut counts = vec![0usize; w];
        let n = 100_000u64;
        for key in 0..n {
            counts[h.hash(key)] += 1;
        }
        let expected = n as f64 / w as f64;
        for (i, &c) in counts.iter().enumerate() {
            let ratio = c as f64 / expected;
            assert!(
                (0.5..2.0).contains(&ratio),
                "bucket {i} has load ratio {ratio}"
            );
        }
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let fam_a = HashFamily::new(2, 1024, 1);
        let fam_b = HashFamily::new(2, 1024, 2);
        let collisions = (0..1000u64)
            .filter(|&k| fam_a.hash(0, k) == fam_b.hash(0, k))
            .count();
        // Two independent functions into 1024 buckets should rarely agree.
        assert!(collisions < 50, "too many collisions: {collisions}");
    }

    #[test]
    fn sign_hash_is_balanced_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = SignHash::draw(&mut rng);
        let pos = (0..10_000u64).filter(|&k| s.sign(k) > 0.0).count();
        assert!((3_000..7_000).contains(&pos), "unbalanced signs: {pos}");
        assert_eq!(s.sign(42), s.sign(42));
        assert!(s.sign(42) == 1.0 || s.sign(42) == -1.0);
    }

    #[test]
    fn hash_family_depth_and_indices() {
        let fam = HashFamily::new(4, 128, 9);
        assert_eq!(fam.depth(), 4);
        let idx: Vec<usize> = fam.indices(77).collect();
        assert_eq!(idx.len(), 4);
        for (level, &i) in idx.iter().enumerate() {
            assert_eq!(i, fam.hash(level, 77));
            assert!(i < 128);
        }
    }

    #[test]
    #[should_panic(expected = "range must be positive")]
    fn zero_range_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = PairwiseHash::draw(0, &mut rng);
    }

    #[test]
    fn restricted_range_is_the_modular_projection() {
        let mut rng = StdRng::seed_from_u64(11);
        let h = PairwiseHash::draw(1024, &mut rng);
        let folded = h.with_range(256);
        for key in 0..5_000u64 {
            assert_eq!(folded.hash(key), h.hash(key) % 256, "key {key}");
        }
        let fam = HashFamily::new(3, 512, 4).with_range(64);
        assert_eq!(fam.depth(), 3);
        for level in 0..3 {
            assert_eq!(fam.function(level).range(), 64);
        }
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn non_divisor_restriction_panics() {
        let mut rng = StdRng::seed_from_u64(2);
        let _ = PairwiseHash::draw(100, &mut rng).with_range(33);
    }
}
