//! # opthash-sketch
//!
//! Randomized baseline sketches and probabilistic data structures used by the
//! paper's evaluation:
//!
//! * [`CountMinSketch`] — the conventional Count-Min Sketch (`count-min`
//!   baseline, Section 2.1),
//! * [`CountSketch`] — the Count Sketch (median-of-signed-counters estimator,
//!   referenced in Section 1.1),
//! * [`LearnedCountMin`] — the Learned Count-Min Sketch with an ideal
//!   heavy-hitter oracle (`heavy-hitter` baseline, Section 2.2),
//! * [`BloomFilter`] — the Bloom filter used by the adaptive counting
//!   extension of `opt-hash` (Section 5.3),
//! * [`hashing`] — seeded 2-universal hash families shared by all of the
//!   above.
//!
//! All sketches implement [`opthash_stream::FrequencyEstimator`] so the
//! experiment harness can drive them interchangeably and compare them at
//! equal memory.
//!
//! ```
//! use opthash_sketch::CountMinSketch;
//! use opthash_stream::ElementId;
//!
//! let mut sketch = CountMinSketch::new(1024, 4, 7);
//! sketch.add(ElementId(42), 3);
//! sketch.add(ElementId(7), 1);
//! // Count-Min never under-estimates.
//! assert!(sketch.query(ElementId(42)) >= 3);
//! // Merging a fork built over a disjoint sub-stream is exact.
//! let mut other = sketch.clone_empty();
//! other.add(ElementId(42), 2);
//! sketch.merge(&other);
//! assert!(sketch.query(ElementId(42)) >= 5);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bloom;
pub mod count_min;
pub mod count_sketch;
pub mod hashing;
pub mod learned_cms;
pub mod misra_gries;

pub use bloom::BloomFilter;
pub use count_min::CountMinSketch;
pub use count_sketch::CountSketch;
pub use hashing::{HashFamily, PairwiseHash, SignHash};
pub use learned_cms::LearnedCountMin;
pub use misra_gries::MisraGries;
