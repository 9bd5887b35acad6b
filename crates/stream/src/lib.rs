//! # opthash-stream
//!
//! Streaming-model substrate shared by every other crate in the `opthash`
//! workspace. It defines the vocabulary of the paper's Section 2:
//!
//! * [`StreamElement`] — an element `u = (k, x)` with a unique ID `k` and a
//!   feature vector `x`,
//! * [`Stream`] — a finite ordered sequence of element arrivals, with support
//!   for splitting off an observed prefix `S0`,
//! * [`FrequencyVector`] — the exact frequency distribution `f` of a stream,
//! * [`FrequencyEstimator`] — the trait implemented by every estimator in the
//!   workspace (Count-Min, Count Sketch, Learned Count-Min, `opt-hash`),
//! * [`ErrorMetrics`] — the two evaluation metrics of Section 7.4 (average
//!   per-element absolute error and expected magnitude of absolute error) plus
//!   the prefix objective terms of Section 4.1 (estimation error and
//!   similarity error),
//! * [`SpaceBudget`] — bucket/byte accounting so all estimators are compared
//!   at equal memory, following Section 7.4 (4 bytes per bucket, double-width
//!   unique buckets for the heavy-hitter baseline).
//!
//! The crate is dependency-light on purpose: it holds plain data types and
//! pure functions that the solver, ML, sketch and core crates all build upon.
//!
//! ```
//! use opthash_stream::{ElementId, FrequencyVector, Stream};
//!
//! let stream = Stream::from_ids([1u64, 1, 2, 1, 3]);
//! let (prefix, continuation) = stream.split_prefix(3);
//! assert_eq!(prefix.arrival_len(), 3);
//! assert_eq!(continuation.len(), 2);
//!
//! let truth = FrequencyVector::from_stream(&stream);
//! assert_eq!(truth.frequency(ElementId(1)), 3);
//! assert_eq!(truth.support_size(), 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod element;
pub mod frequency;
pub mod metrics;
pub mod space;
pub mod stream;

pub use element::{ElementId, Features, StreamElement};
pub use frequency::{FrequencyEstimator, FrequencyVector};
pub use metrics::{assignment_errors, AssignmentErrors, ErrorMetrics};
pub use space::{SpaceBudget, SpaceReport, BYTES_PER_BUCKET};
pub use stream::{Stream, StreamPrefix, StreamStats};
