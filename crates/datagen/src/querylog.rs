//! Synthetic multi-day search-query log (substitute for the AOL dataset of
//! Section 7).
//!
//! The real AOL log (21M queries, 3.8M unique, 90 days) is not
//! redistributable, so this module generates a query log with the three
//! properties the paper's evaluation actually depends on:
//!
//! 1. **Zipfian rank–frequency law** — query popularity follows
//!    `P(rank r) ∝ 1/r^s`, which reproduces the frequency scale the paper
//!    quotes (rank 1 ≫ rank 10 ≫ rank 100 …).
//! 2. **Day-to-day persistence** — each day is an independent sample from the
//!    same popularity law, so popular queries recur every day, exactly the
//!    property that makes a prefix-learned hashing scheme useful.
//! 3. **Text features predictive of popularity** — popular queries are short
//!    navigational queries (single brand words, `www.x.com` forms), rare
//!    queries are long multi-word phrases, so the bag-of-words and
//!    character-count features of `opthash-ml::features` carry signal, as the
//!    paper reports ("www", "com", "google" and the count features dominate).

use crate::zipf::ZipfSampler;
use opthash_stream::{ElementId, FrequencyVector, Stream, StreamElement};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the synthetic query-log generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryLogConfig {
    /// Number of unique queries in the universe.
    pub num_queries: usize,
    /// Number of days the log spans (the paper's AOL log has 90).
    pub days: usize,
    /// Number of query arrivals per day.
    pub arrivals_per_day: usize,
    /// Zipf exponent of the popularity law (≈ 1 for web queries).
    pub zipf_exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QueryLogConfig {
    fn default() -> Self {
        QueryLogConfig {
            num_queries: 20_000,
            days: 90,
            arrivals_per_day: 20_000,
            zipf_exponent: 1.0,
            seed: 0,
        }
    }
}

impl QueryLogConfig {
    /// A small configuration for fast tests and examples.
    pub fn small() -> Self {
        QueryLogConfig {
            num_queries: 2_000,
            days: 10,
            arrivals_per_day: 2_000,
            ..QueryLogConfig::default()
        }
    }
}

/// Brand-like words that dominate popular navigational queries.
const BRANDS: &[&str] = &[
    "google",
    "yahoo",
    "ebay",
    "mapquest",
    "myspace",
    "amazon",
    "weather",
    "dictionary",
    "bank",
    "craigslist",
    "hotmail",
    "msn",
    "aol",
    "walmart",
    "target",
    "irs",
    "webmd",
    "espn",
    "lyrics",
    "wikipedia",
];

/// Filler vocabulary used to build long-tail phrase queries.
const TAIL_WORDS: &[&str] = &[
    "free",
    "online",
    "cheap",
    "best",
    "reviews",
    "pictures",
    "how",
    "to",
    "make",
    "home",
    "recipes",
    "casino",
    "hotel",
    "flights",
    "jobs",
    "school",
    "county",
    "city",
    "music",
    "movie",
    "download",
    "county",
    "sale",
    "used",
    "cars",
    "insurance",
    "estate",
    "rental",
    "coupons",
    "games",
    "kids",
    "dog",
    "cat",
    "symptoms",
    "treatment",
    "history",
    "phone",
    "number",
    "address",
    "store",
    "hours",
    "near",
    "me",
    "florida",
    "texas",
    "california",
    "new",
    "york",
    "sharon",
    "stone",
];

/// A fully materialized synthetic query log.
#[derive(Debug, Clone)]
pub struct QueryLogDataset {
    config: QueryLogConfig,
    /// Query text per ID; the ID equals the query's popularity rank − 1.
    queries: Vec<String>,
    zipf: ZipfSampler,
}

impl QueryLogDataset {
    /// Generates the query universe.
    pub fn generate(config: QueryLogConfig) -> Self {
        assert!(config.num_queries > 0, "need at least one query");
        assert!(config.days > 0, "need at least one day");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut queries = Vec::with_capacity(config.num_queries);
        for rank in 0..config.num_queries {
            queries.push(Self::make_query_text(rank, &mut rng));
        }
        let zipf = ZipfSampler::new(config.num_queries, config.zipf_exponent);
        QueryLogDataset {
            config,
            queries,
            zipf,
        }
    }

    /// Builds query text whose shape correlates with popularity rank.
    fn make_query_text(rank: usize, rng: &mut StdRng) -> String {
        let brand = BRANDS[rank % BRANDS.len()];
        if rank < 40 {
            // Very popular: bare brand or its navigational form.
            match rank % 3 {
                0 => brand.to_owned(),
                1 => format!("www.{brand}.com"),
                _ => format!("{brand}.com"),
            }
        } else if rank < 400 {
            // Popular: brand plus one qualifier, chosen deterministically from
            // the rank so every query text in this band is distinct.
            let word = TAIL_WORDS[(rank / BRANDS.len()) % TAIL_WORDS.len()];
            if rank.is_multiple_of(5) {
                format!("www.{brand}{rank}.com")
            } else {
                format!("{brand} {word}")
            }
        } else {
            // Long tail: multi-word phrase, occasionally with a unique token
            // so every query string is distinct.
            let num_words = 2 + (rank % 4);
            let mut words: Vec<String> = (0..num_words)
                .map(|_| TAIL_WORDS[rng.gen_range(0..TAIL_WORDS.len())].to_owned())
                .collect();
            words.push(format!("q{rank}"));
            words.join(" ")
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &QueryLogConfig {
        &self.config
    }

    /// Number of unique queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// The text of a query ID (IDs are popularity ranks, 0 = most popular).
    pub fn query_text(&self, id: ElementId) -> Option<&str> {
        self.queries.get(id.raw() as usize).map(String::as_str)
    }

    /// All query texts, indexed by ID.
    pub fn query_texts(&self) -> &[String] {
        &self.queries
    }

    /// Probability of a single arrival being query `id`.
    pub fn arrival_probability(&self, id: ElementId) -> f64 {
        self.zipf.probability(id.raw() as usize)
    }

    /// Generates the stream of arrivals of one day (`day` is 0-based).
    /// Elements carry no features — attach them with
    /// `opthash-ml::TextFeaturizer` where needed.
    pub fn day_stream(&self, day: usize) -> Stream {
        assert!(day < self.config.days, "day {day} out of range");
        let mut rng = StdRng::seed_from_u64(
            self.config
                .seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(day as u64 + 1),
        );
        (0..self.config.arrivals_per_day)
            .map(|_| {
                let rank = self.zipf.sample(&mut rng);
                StreamElement::without_features(ElementId(rank as u64))
            })
            .collect()
    }

    /// Exact per-query counts of one day.
    pub fn day_counts(&self, day: usize) -> FrequencyVector {
        FrequencyVector::from_stream(&self.day_stream(day))
    }

    /// Exact per-query counts aggregated over days `0..=day` — the ground
    /// truth `f^t` the paper evaluates against after day `t`.
    pub fn cumulative_counts(&self, day: usize) -> FrequencyVector {
        let mut total = FrequencyVector::new();
        for d in 0..=day.min(self.config.days - 1) {
            total.merge(&self.day_counts(d));
        }
        total
    }

    /// The set of day-0 `(query text, count)` pairs — the observed prefix the
    /// learned approaches train on (Section 7.3 uses the first day).
    pub fn first_day_counts(&self) -> Vec<(ElementId, String, u64)> {
        let counts = self.day_counts(0);
        let mut pairs: Vec<(ElementId, String, u64)> = counts
            .iter()
            .map(|(id, c)| (id, self.queries[id.raw() as usize].clone(), c))
            .collect();
        pairs.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        pairs
    }

    /// IDs of the overall top-`k` most popular queries (the ideal
    /// heavy-hitter oracle the `heavy-hitter` baseline is granted).
    pub fn top_k_ids(&self, k: usize) -> Vec<ElementId> {
        (0..k.min(self.num_queries()))
            .map(|r| ElementId(r as u64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> QueryLogDataset {
        QueryLogDataset::generate(QueryLogConfig {
            num_queries: 500,
            days: 5,
            arrivals_per_day: 5_000,
            zipf_exponent: 1.0,
            seed: 1,
        })
    }

    #[test]
    fn universe_has_requested_size_and_unique_text() {
        let data = tiny();
        assert_eq!(data.num_queries(), 500);
        let mut texts: Vec<&str> = data.query_texts().iter().map(String::as_str).collect();
        texts.sort_unstable();
        texts.dedup();
        // Popular navigational queries are distinct by construction; the long
        // tail carries a unique token. Some mid-rank queries may collide, but
        // the overwhelming majority must be distinct.
        assert!(
            texts.len() > 480,
            "too many duplicate query texts: {}",
            texts.len()
        );
    }

    #[test]
    fn popular_queries_are_short_and_navigational() {
        let data = tiny();
        let head = data.query_text(ElementId(0)).unwrap();
        assert!(head.split_whitespace().count() <= 1);
        let tail = data.query_text(ElementId(499)).unwrap();
        assert!(tail.split_whitespace().count() >= 3);
        // at least one of the head queries has the www/.com shape
        let navigational = (0..40)
            .filter_map(|r| data.query_text(ElementId(r)))
            .filter(|t| t.contains(".com"))
            .count();
        assert!(navigational > 10);
    }

    #[test]
    fn day_streams_follow_the_zipf_law() {
        let data = tiny();
        let counts = data.day_counts(0);
        let f0 = counts.frequency(ElementId(0)) as f64;
        let f9 = counts.frequency(ElementId(9)) as f64;
        let f99 = counts.frequency(ElementId(99)) as f64;
        assert!(f0 > f9 && f9 > f99, "head should dominate: {f0} {f9} {f99}");
        // rank 1 vs rank 10 should differ by roughly 10x for s = 1
        let ratio = f0 / f9.max(1.0);
        assert!((4.0..25.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn popular_queries_persist_across_days() {
        let data = tiny();
        let d0 = data.day_counts(0);
        let d3 = data.day_counts(3);
        for rank in 0..10u64 {
            assert!(d0.frequency(ElementId(rank)) > 0);
            assert!(d3.frequency(ElementId(rank)) > 0);
        }
    }

    #[test]
    fn day_streams_are_deterministic_but_differ_across_days() {
        let data = tiny();
        let a = data.day_stream(1);
        let b = data.day_stream(1);
        let ids_a: Vec<u64> = a.iter().map(|e| e.id.raw()).collect();
        let ids_b: Vec<u64> = b.iter().map(|e| e.id.raw()).collect();
        assert_eq!(ids_a, ids_b);
        let c = data.day_stream(2);
        let ids_c: Vec<u64> = c.iter().map(|e| e.id.raw()).collect();
        assert_ne!(ids_a, ids_c);
    }

    #[test]
    fn cumulative_counts_grow_monotonically() {
        let data = tiny();
        let day0 = data.cumulative_counts(0);
        let day4 = data.cumulative_counts(4);
        assert!(day4.total() > day0.total());
        assert_eq!(day4.total(), 5 * 5_000);
        for (id, c) in day0.iter() {
            assert!(day4.frequency(id) >= c);
        }
    }

    #[test]
    fn first_day_counts_are_sorted_by_frequency() {
        let data = tiny();
        let pairs = data.first_day_counts();
        assert!(!pairs.is_empty());
        for w in pairs.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
        // most frequent day-0 query should be one of the global head queries
        assert!(pairs[0].0.raw() < 10);
    }

    #[test]
    fn top_k_ids_are_the_first_ranks() {
        let data = tiny();
        let top = data.top_k_ids(3);
        assert_eq!(top, vec![ElementId(0), ElementId(1), ElementId(2)]);
        assert_eq!(data.top_k_ids(10_000).len(), 500);
    }

    #[test]
    fn arrival_probabilities_decrease_with_rank() {
        let data = tiny();
        assert!(data.arrival_probability(ElementId(0)) > data.arrival_probability(ElementId(1)));
        assert!(data.arrival_probability(ElementId(10)) > data.arrival_probability(ElementId(400)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn day_out_of_range_panics() {
        let data = tiny();
        let _ = data.day_stream(99);
    }
}
