//! Bloom filter.
//!
//! A probabilistic set-membership structure with no false negatives and a
//! tunable false-positive rate (Bloom 1970). The adaptive counting extension
//! of `opt-hash` (Section 5.3) uses it to test whether an arriving element
//! has been seen before, so that the per-bucket distinct-element counters
//! `c_j` are incremented exactly once per new element (up to false
//! positives, which make the extension slightly over-estimate — exactly the
//! behaviour the paper describes).

use crate::hashing::HashFamily;
use opthash_stream::{ElementId, SpaceReport};

/// A Bloom filter over element IDs.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: usize,
    hashes: HashFamily,
    inserted: usize,
}

impl BloomFilter {
    /// Creates a filter with `num_bits` bits and `num_hashes` hash functions.
    pub fn new(num_bits: usize, num_hashes: usize, seed: u64) -> Self {
        assert!(num_bits > 0, "Bloom filter needs at least one bit");
        assert!(num_hashes > 0, "Bloom filter needs at least one hash");
        BloomFilter {
            bits: vec![0u64; num_bits.div_ceil(64)],
            num_bits,
            hashes: HashFamily::new(num_hashes, num_bits, seed),
            inserted: 0,
        }
    }

    /// Creates a filter sized for `expected_items` with a target
    /// false-positive rate, using the standard optimal sizing
    /// `m = −n·ln(p)/ln(2)²` and `k = (m/n)·ln(2)`.
    pub fn with_capacity(expected_items: usize, false_positive_rate: f64, seed: u64) -> Self {
        assert!(
            false_positive_rate > 0.0 && false_positive_rate < 1.0,
            "false-positive rate must lie in (0, 1)"
        );
        let n = expected_items.max(1) as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = (-(n * false_positive_rate.ln()) / (ln2 * ln2))
            .ceil()
            .max(8.0) as usize;
        let k = ((m as f64 / n) * ln2).round().max(1.0) as usize;
        Self::new(m, k, seed)
    }

    /// Number of bits in the filter.
    #[inline]
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Number of hash functions.
    #[inline]
    pub fn num_hashes(&self) -> usize {
        self.hashes.depth()
    }

    /// Number of `insert` calls performed (including duplicates).
    #[inline]
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    #[inline]
    fn set_bit(&mut self, idx: usize) {
        self.bits[idx / 64] |= 1u64 << (idx % 64);
    }

    #[inline]
    fn get_bit(&self, idx: usize) -> bool {
        self.bits[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Inserts an element ID.
    pub fn insert(&mut self, id: ElementId) {
        for level in 0..self.hashes.depth() {
            let idx = self.hashes.hash(level, id.raw());
            self.set_bit(idx);
        }
        self.inserted += 1;
    }

    /// Tests membership. Never returns `false` for an inserted element; may
    /// return `true` for an element never inserted (false positive).
    pub fn contains(&self, id: ElementId) -> bool {
        (0..self.hashes.depth()).all(|level| self.get_bit(self.hashes.hash(level, id.raw())))
    }

    /// Inserts and reports whether the element was (apparently) new:
    /// `true` if it was *not* contained before the insertion. This is the
    /// exact operation the adaptive counting extension needs per arrival.
    pub fn insert_and_check_new(&mut self, id: ElementId) -> bool {
        let was_present = self.contains(id);
        self.insert(id);
        !was_present
    }

    /// Creates a filter with the same size and hash functions but no bits
    /// set — the state of one shard of a partitioned stream.
    /// `O(num_bits / 64)`.
    pub fn clone_empty(&self) -> Self {
        BloomFilter {
            bits: vec![0u64; self.bits.len()],
            num_bits: self.num_bits,
            hashes: self.hashes.clone(),
            inserted: 0,
        }
    }

    /// Creates a filter with the same bits set but an `inserted` counter of
    /// zero: a shard-local *delta* filter that already knows everything its
    /// parent has seen, whose later [`BloomFilter::union`] back into the
    /// parent adds only its own insert count. `O(num_bits / 64)`.
    pub fn clone_delta(&self) -> Self {
        BloomFilter {
            bits: self.bits.clone(),
            num_bits: self.num_bits,
            hashes: self.hashes.clone(),
            inserted: 0,
        }
    }

    /// Unions another filter of the *same configuration* into this one by
    /// bitwise OR. The union of two Bloom filters over the same hash
    /// functions represents exactly the union of their inserted sets (still
    /// no false negatives). `O(num_bits / 64)`.
    ///
    /// # Panics
    ///
    /// Panics if the two filters have different sizes or hash functions.
    pub fn union(&mut self, other: &BloomFilter) {
        assert!(
            self.num_bits == other.num_bits && self.hashes == other.hashes,
            "can only union Bloom filters of identical configuration"
        );
        for (w, &o) in self.bits.iter_mut().zip(&other.bits) {
            *w |= o;
        }
        self.inserted += other.inserted;
    }

    /// Expected false-positive rate given the number of *distinct* items
    /// inserted so far (`(1 − e^{−k·n/m})^k`).
    pub fn expected_false_positive_rate(&self, distinct_items: usize) -> f64 {
        let k = self.num_hashes() as f64;
        let m = self.num_bits as f64;
        let n = distinct_items as f64;
        (1.0 - (-k * n / m).exp()).powf(k)
    }

    /// Fraction of bits currently set (load factor).
    pub fn fill_ratio(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        set as f64 / self.num_bits as f64
    }

    /// Itemized memory usage.
    pub fn space_report(&self) -> SpaceReport {
        SpaceReport {
            bloom_bits: self.num_bits,
            ..SpaceReport::default()
        }
    }

    /// Memory usage in bytes.
    pub fn space_bytes(&self) -> usize {
        self.space_report().total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::new(1 << 14, 4, 3);
        for id in 0..2_000u64 {
            bf.insert(ElementId(id));
        }
        for id in 0..2_000u64 {
            assert!(bf.contains(ElementId(id)), "false negative for {id}");
        }
    }

    #[test]
    fn false_positive_rate_is_near_prediction() {
        let mut bf = BloomFilter::with_capacity(5_000, 0.01, 7);
        for id in 0..5_000u64 {
            bf.insert(ElementId(id));
        }
        let fps = (100_000..200_000u64)
            .filter(|&id| bf.contains(ElementId(id)))
            .count();
        let rate = fps as f64 / 100_000.0;
        let predicted = bf.expected_false_positive_rate(5_000);
        assert!(
            rate < predicted * 3.0 + 0.01,
            "observed FP rate {rate} far above predicted {predicted}"
        );
    }

    #[test]
    fn with_capacity_sizing_grows_with_stricter_rate() {
        let loose = BloomFilter::with_capacity(1_000, 0.1, 1);
        let strict = BloomFilter::with_capacity(1_000, 0.001, 1);
        assert!(strict.num_bits() > loose.num_bits());
        assert!(strict.num_hashes() >= loose.num_hashes());
    }

    #[test]
    fn insert_and_check_new_flags_first_insertion_only() {
        let mut bf = BloomFilter::new(1 << 12, 3, 5);
        assert!(bf.insert_and_check_new(ElementId(42)));
        assert!(!bf.insert_and_check_new(ElementId(42)));
        assert_eq!(bf.inserted(), 2);
    }

    #[test]
    fn empty_filter_contains_nothing_and_has_zero_fill() {
        let bf = BloomFilter::new(1024, 3, 1);
        assert!(!bf.contains(ElementId(1)));
        assert_eq!(bf.fill_ratio(), 0.0);
        assert_eq!(bf.expected_false_positive_rate(0), 0.0);
    }

    #[test]
    fn fill_ratio_increases_with_insertions() {
        let mut bf = BloomFilter::new(256, 2, 9);
        let before = bf.fill_ratio();
        for id in 0..50u64 {
            bf.insert(ElementId(id));
        }
        assert!(bf.fill_ratio() > before);
        assert!(bf.fill_ratio() <= 1.0);
    }

    #[test]
    fn space_accounting_rounds_bits_up_to_bytes() {
        let bf = BloomFilter::new(1_000, 3, 1);
        assert_eq!(bf.space_bytes(), 125);
        let bf2 = BloomFilter::new(1_001, 3, 1);
        assert_eq!(bf2.space_bytes(), 126);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bits_panics() {
        let _ = BloomFilter::new(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "false-positive rate")]
    fn bad_fp_rate_panics() {
        let _ = BloomFilter::with_capacity(10, 1.5, 1);
    }

    #[test]
    fn union_equals_inserting_both_sets() {
        let mut sequential = BloomFilter::new(1 << 10, 3, 4);
        let base = sequential.clone_empty();
        let mut left = base.clone_empty();
        let mut right = base.clone_empty();
        for id in 0..200u64 {
            sequential.insert(ElementId(id));
            if id % 2 == 0 {
                left.insert(ElementId(id));
            } else {
                right.insert(ElementId(id));
            }
        }
        let mut merged = base.clone_empty();
        merged.union(&left);
        merged.union(&right);
        assert_eq!(merged.inserted(), sequential.inserted());
        for id in 0..500u64 {
            assert_eq!(
                merged.contains(ElementId(id)),
                sequential.contains(ElementId(id)),
                "membership mismatch for {id}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "identical configuration")]
    fn union_of_mismatched_filters_panics() {
        let mut a = BloomFilter::new(128, 2, 1);
        let b = BloomFilter::new(256, 2, 1);
        a.union(&b);
    }
}
