//! # opthash-ml
//!
//! From-scratch machine-learning components used by the learned hashing
//! scheme. Once the solver has assigned the prefix elements to buckets, a
//! multi-class classifier is trained on `(features, bucket)` pairs so that
//! *unseen* elements can be routed to the bucket of similar elements
//! (Section 5.2 of the paper). Three model families are provided, matching
//! the paper's experiments (Section 6.2):
//!
//! * [`LogisticRegression`] — ridge-regularized multinomial logistic
//!   regression trained with full-batch gradient descent (`logreg`),
//! * [`DecisionTree`] — a CART classifier with Gini impurity, maximum depth
//!   and minimum-impurity-decrease pruning (`cart`),
//! * [`RandomForest`] — a bagged ensemble of CART trees with per-split
//!   feature subsampling (`rf`).
//!
//! Both tree models grow from one column-major copy of the features (one
//! per forest, not per tree). A split search reads only a feature's
//! non-zero values at the node and scans all zeros as one block, which
//! suits sparse bag-of-words features; it picks the same splits, bit for
//! bit, as sorting every sample (see [`cart`]).
//!
//! Supporting modules:
//!
//! * [`dataset`] — the dense `(features, label)` training-set representation
//!   plus splitting utilities,
//! * [`features`] — the bag-of-words + character-count text featurizer used
//!   for search-query experiments (Section 7.3).
//!
//! ```
//! use opthash_ml::{Classifier, ClassifierKind, Dataset};
//!
//! // Two linearly separable classes in one dimension.
//! let rows = vec![vec![0.1], vec![0.2], vec![0.9], vec![1.0]];
//! let labels = vec![0, 0, 1, 1];
//! let data = Dataset::from_rows(rows, labels);
//! let model = ClassifierKind::Cart.fit(&data, 1);
//! assert_eq!(model.predict(&[0.15]), 0);
//! assert_eq!(model.predict(&[0.95]), 1);
//! assert!(model.accuracy(&data) > 0.99);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cart;
pub mod classifier;
pub mod dataset;
pub mod features;
pub mod forest;
pub mod logreg;

pub use cart::{CartConfig, DecisionTree};
pub use classifier::{Classifier, ClassifierKind, TrainedClassifier};
pub use dataset::Dataset;
pub use features::{QueryFeatures, TextFeaturizer};
pub use forest::{ForestConfig, RandomForest};
pub use logreg::{LogRegConfig, LogisticRegression};
