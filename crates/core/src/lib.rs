//! # opthash
//!
//! The learned optimal hashing scheme for streaming frequency estimation of
//! Bertsimas & Digalakis (ICDE 2022 / IEEE TKDE), the `opt-hash` estimator of
//! the paper.
//!
//! Instead of hashing elements to buckets at random (as the Count-Min Sketch
//! does), `opt-hash` exploits an observed stream prefix:
//!
//! 1. the elements seen in the prefix are assigned to buckets by an
//!    optimization solver so that co-bucketed elements have similar observed
//!    frequencies and similar features (`opthash-solver`),
//! 2. a multi-class classifier is trained on `(features, bucket)` pairs so
//!    unseen elements can be routed to a bucket of look-alikes
//!    (`opthash-ml`),
//! 3. during stream processing each arrival increments its bucket's counter,
//!    and a point query answers with the bucket's *average* frequency.
//!
//! Two estimators are provided:
//!
//! * [`OptHash`] — the static scheme of Sections 3–5.2: only elements seen in
//!   the prefix are tracked exactly; unseen elements are estimated from the
//!   bucket the classifier routes them to.
//! * [`AdaptiveOptHash`] — the adaptive counting extension of Section 5.3: a
//!   Bloom filter tracks which elements have been seen so the per-bucket
//!   element counts (and therefore the averages) follow the stream beyond
//!   the prefix.
//!
//! ## Quick start
//!
//! ```
//! use opthash::{OptHashBuilder, SolverKind};
//! use opthash_stream::{FrequencyEstimator, Stream, StreamElement};
//!
//! // An observed prefix: element 1 is hot, elements 2 and 3 are cold.
//! let prefix = Stream::from_arrivals(vec![
//!     StreamElement::new(1u64, vec![1.0]),
//!     StreamElement::new(1u64, vec![1.0]),
//!     StreamElement::new(1u64, vec![1.0]),
//!     StreamElement::new(2u64, vec![5.0]),
//!     StreamElement::new(3u64, vec![5.2]),
//! ]);
//!
//! let mut estimator = OptHashBuilder::new(2)
//!     .lambda(1.0)
//!     .solver(SolverKind::Dp)
//!     .train_on_stream(&prefix);
//!
//! // Process more arrivals and answer point queries at any time.
//! estimator.update(&StreamElement::new(1u64, vec![1.0]));
//! let hot = estimator.estimate(&StreamElement::new(1u64, vec![1.0]));
//! let cold = estimator.estimate(&StreamElement::new(2u64, vec![5.0]));
//! assert!(hot > cold);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adaptive;
pub mod config;
pub mod estimator;
pub mod stats;

pub use adaptive::AdaptiveOptHash;
pub use config::{OptHashBuilder, OptHashConfig, SolverKind};
pub use estimator::OptHash;
pub use stats::EstimatorStats;

// Re-export the workspace crates whose types appear in this crate's public
// API, so downstream users need only depend on `opthash`.
pub use opthash_ml as ml;
pub use opthash_sketch as sketch;
pub use opthash_solver as solver;
pub use opthash_stream as stream;
