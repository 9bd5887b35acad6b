//! Memory accounting shared by all estimators.
//!
//! The paper compares estimators at equal memory: "each bucket consumes 4
//! bytes of memory and hence the total number of buckets used in each
//! experiment can be calculated as `b = m·10³/4` where `m` is the size of the
//! estimator in KB" (Section 7.4). For the learned Count-Min baseline, a
//! *unique* bucket reserved for a heavy hitter stores both a counter and a
//! (hashed) ID and therefore costs twice a normal bucket (Section 2.2). The
//! `opt-hash` estimator additionally stores the IDs of the prefix elements it
//! keeps in its hash table, which is what the ratio `c = b/n` of Section 7.3
//! accounts for.
//!
//! [`SpaceBudget`] converts between kilobytes and bucket counts under those
//! rules, and [`SpaceReport`] lets each estimator itemize its usage so
//! experiments can assert that all competitors stay within the same budget.

/// Bytes occupied by one ordinary counter bucket (Section 7.4).
pub const BYTES_PER_BUCKET: usize = 4;

/// Bytes charged for storing one element ID in a hash table. The paper notes
/// that open addressing lets IDs be stored in `log b_heavy + t` bits, i.e.
/// comparable to a counter, so an ID is charged the same 4 bytes as a bucket.
pub const BYTES_PER_STORED_ID: usize = 4;

/// A memory budget for an estimator, expressed in bytes.
///
/// Construct from kilobytes with [`SpaceBudget::from_kb`] to follow the
/// paper's configurations (1.2 KB … 120 KB), then derive bucket counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceBudget {
    bytes: usize,
}

impl SpaceBudget {
    /// A budget of exactly `bytes` bytes.
    pub fn from_bytes(bytes: usize) -> Self {
        SpaceBudget { bytes }
    }

    /// A budget of `kb` kilobytes (decimal: 1 KB = 1000 bytes, matching the
    /// paper's `b = m·10³/4` formula).
    pub fn from_kb(kb: f64) -> Self {
        SpaceBudget {
            bytes: (kb * 1000.0).round() as usize,
        }
    }

    /// The budget in bytes.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The budget in (decimal) kilobytes.
    pub fn kb(&self) -> f64 {
        self.bytes as f64 / 1000.0
    }

    /// Total number of ordinary buckets that fit: `b = bytes / 4`.
    pub fn total_buckets(&self) -> usize {
        self.bytes / BYTES_PER_BUCKET
    }

    /// Splits the budget into a Count-Min style `width × depth` grid using
    /// all available buckets (rounding the width down).
    pub fn count_min_dimensions(&self, depth: usize) -> (usize, usize) {
        assert!(depth > 0, "depth must be positive");
        let width = (self.total_buckets() / depth).max(1);
        (width, depth)
    }

    /// Splits the budget for the learned Count-Min baseline: `b_heavy` unique
    /// buckets (double cost) and the rest as ordinary Count-Min buckets.
    /// Returns `(unique_buckets, remaining_ordinary_buckets)`; the number of
    /// unique buckets is clamped so that `b_heavy ≤ b/2` as in Section 7.2.
    pub fn learned_cms_split(&self, requested_heavy: usize) -> (usize, usize) {
        let total = self.total_buckets();
        let max_heavy = total / 2;
        let heavy = requested_heavy.min(max_heavy);
        let remaining = total - 2 * heavy;
        (heavy, remaining)
    }

    /// Splits the budget for `opt-hash` given the bucket-to-stored-ID ratio
    /// `c` of Section 7.3: with `n` stored IDs and `b` buckets, the paper
    /// picks `n = b_total/(1+c)` and `b = b_total − n`.
    /// Returns `(stored_ids_n, buckets_b)`; both are at least 1 whenever the
    /// budget allows at least two slots.
    pub fn opt_hash_split(&self, c: f64) -> (usize, usize) {
        assert!(c > 0.0, "bucket-to-ID ratio c must be positive");
        let total = self.total_buckets();
        if total < 2 {
            return (total, 0);
        }
        let n = ((total as f64) / (1.0 + c)).floor() as usize;
        let n = n.clamp(1, total - 1);
        let b = total - n;
        (n, b)
    }
}

/// Itemized memory usage of an estimator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpaceReport {
    /// Number of plain counter buckets.
    pub counters: usize,
    /// Number of heavy-hitter unique buckets.
    pub unique_buckets: usize,
    /// Number of stored element IDs.
    pub stored_ids: usize,
    /// Number of Bloom-filter bits.
    pub bloom_bits: usize,
    /// Auxiliary bytes that do not fit the categories above (e.g. per-bucket
    /// element-count fields of the adaptive extension).
    pub auxiliary_bytes: usize,
}

impl SpaceReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes under the paper's accounting (Bloom bits rounded up to
    /// whole bytes). Saturating: a fleet-wide aggregate built with
    /// [`SpaceReport::saturating_add`] can legitimately hold huge item
    /// counts, and an overflowing total must read as "too big", never wrap
    /// to a small number that would pass a budget check.
    pub fn total_bytes(&self) -> usize {
        self.counters
            .saturating_mul(BYTES_PER_BUCKET)
            .saturating_add(self.unique_buckets.saturating_mul(2 * BYTES_PER_BUCKET))
            .saturating_add(self.stored_ids.saturating_mul(BYTES_PER_STORED_ID))
            .saturating_add(self.bloom_bits.div_ceil(8))
            .saturating_add(self.auxiliary_bytes)
    }

    /// Returns `true` if the report fits inside `budget`.
    pub fn fits(&self, budget: SpaceBudget) -> bool {
        self.total_bytes() <= budget.bytes()
    }

    /// Element-wise saturating sum of two reports — the aggregation primitive
    /// a fleet-level memory governor uses to total thousands of per-tenant
    /// reports. Saturates at `usize::MAX` per field instead of wrapping, so a
    /// pathological aggregate fails a budget check rather than passing it.
    pub fn saturating_add(&self, other: &SpaceReport) -> SpaceReport {
        SpaceReport {
            counters: self.counters.saturating_add(other.counters),
            unique_buckets: self.unique_buckets.saturating_add(other.unique_buckets),
            stored_ids: self.stored_ids.saturating_add(other.stored_ids),
            bloom_bits: self.bloom_bits.saturating_add(other.bloom_bits),
            auxiliary_bytes: self.auxiliary_bytes.saturating_add(other.auxiliary_bytes),
        }
    }

    /// Saturating sum of an iterator of reports (fleet-wide totals).
    pub fn saturating_sum<'a>(reports: impl IntoIterator<Item = &'a SpaceReport>) -> SpaceReport {
        reports
            .into_iter()
            .fold(SpaceReport::new(), |acc, r| acc.saturating_add(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kb_to_buckets_matches_paper_formula() {
        // 120 KB -> 30,000 buckets; 4 KB -> 1,000 buckets
        assert_eq!(SpaceBudget::from_kb(120.0).total_buckets(), 30_000);
        assert_eq!(SpaceBudget::from_kb(4.0).total_buckets(), 1_000);
        assert_eq!(SpaceBudget::from_kb(1.2).total_buckets(), 300);
        assert!((SpaceBudget::from_kb(4.0).kb() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn count_min_dimensions_use_whole_budget() {
        let b = SpaceBudget::from_kb(4.0);
        let (w, d) = b.count_min_dimensions(4);
        assert_eq!(d, 4);
        assert_eq!(w, 250);
        // depth larger than buckets still yields width >= 1
        let tiny = SpaceBudget::from_bytes(8);
        assert_eq!(tiny.count_min_dimensions(6), (1, 6));
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn count_min_dimensions_rejects_zero_depth() {
        let _ = SpaceBudget::from_kb(1.0).count_min_dimensions(0);
    }

    #[test]
    fn learned_cms_split_charges_unique_buckets_double() {
        let b = SpaceBudget::from_kb(4.0); // 1000 buckets
        let (heavy, rest) = b.learned_cms_split(100);
        assert_eq!(heavy, 100);
        assert_eq!(rest, 800);
        // request more than b/2 heavy buckets -> clamped
        let (heavy, rest) = b.learned_cms_split(10_000);
        assert_eq!(heavy, 500);
        assert_eq!(rest, 0);
    }

    #[test]
    fn opt_hash_split_follows_ratio() {
        let b = SpaceBudget::from_kb(4.0); // 1000 slots
        let (n, buckets) = b.opt_hash_split(0.03);
        // n = 1000/1.03 = 970.8 -> 970, b = 30
        assert_eq!(n, 970);
        assert_eq!(buckets, 30);
        assert_eq!(n + buckets, 1000);
        let (n, buckets) = b.opt_hash_split(0.3);
        assert_eq!(n + buckets, 1000);
        assert!(buckets > 200 && buckets < 300);
    }

    #[test]
    fn opt_hash_split_tiny_budgets() {
        assert_eq!(SpaceBudget::from_bytes(4).opt_hash_split(0.3), (1, 0));
        let (n, b) = SpaceBudget::from_bytes(8).opt_hash_split(0.3);
        assert_eq!(n + b, 2);
        assert!(n >= 1 && b >= 1);
    }

    #[test]
    fn space_report_totals() {
        let report = SpaceReport {
            counters: 10,
            unique_buckets: 3,
            stored_ids: 5,
            bloom_bits: 17,
            auxiliary_bytes: 2,
        };
        // 40 + 24 + 20 + 3 + 2 = 89
        assert_eq!(report.total_bytes(), 89);
        assert!(report.fits(SpaceBudget::from_bytes(89)));
        assert!(!report.fits(SpaceBudget::from_bytes(88)));
    }

    #[test]
    fn saturating_add_sums_field_wise() {
        let a = SpaceReport {
            counters: 10,
            unique_buckets: 1,
            stored_ids: 2,
            bloom_bits: 9,
            auxiliary_bytes: 3,
        };
        let b = SpaceReport {
            counters: 5,
            unique_buckets: 4,
            stored_ids: 1,
            bloom_bits: 7,
            auxiliary_bytes: 0,
        };
        let sum = a.saturating_add(&b);
        assert_eq!(sum.counters, 15);
        assert_eq!(sum.unique_buckets, 5);
        assert_eq!(sum.stored_ids, 3);
        assert_eq!(sum.bloom_bits, 16);
        assert_eq!(sum.auxiliary_bytes, 3);
        // Identity element.
        assert_eq!(a.saturating_add(&SpaceReport::new()), a);
    }

    #[test]
    fn saturating_sum_totals_a_fleet() {
        let per_tenant = SpaceReport {
            counters: 1000,
            ..SpaceReport::default()
        };
        let fleet: Vec<SpaceReport> = (0..1_000).map(|_| per_tenant.clone()).collect();
        let total = SpaceReport::saturating_sum(&fleet);
        assert_eq!(total.counters, 1_000_000);
        assert_eq!(total.total_bytes(), 4_000_000);
        assert_eq!(
            SpaceReport::saturating_sum(std::iter::empty()),
            SpaceReport::new()
        );
    }

    #[test]
    fn aggregation_saturates_instead_of_wrapping() {
        let huge = SpaceReport {
            counters: usize::MAX - 1,
            unique_buckets: usize::MAX,
            stored_ids: 3,
            bloom_bits: usize::MAX,
            auxiliary_bytes: usize::MAX,
        };
        let sum = huge.saturating_add(&huge);
        assert_eq!(sum.counters, usize::MAX);
        assert_eq!(sum.unique_buckets, usize::MAX);
        assert_eq!(sum.stored_ids, 6);
        assert_eq!(sum.bloom_bits, usize::MAX);
        // An overflowing total reads as "too big" (saturated), so it can
        // never sneak under a budget check by wrapping.
        assert_eq!(sum.total_bytes(), usize::MAX);
        assert!(!sum.fits(SpaceBudget::from_bytes(usize::MAX - 1)));
    }
}
