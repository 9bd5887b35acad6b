//! The [`SketchBackend`] trait: one interface over the workspace's linear
//! frequency estimators, designed around *weighted*, *mergeable* updates so
//! the sharded ingest engine can drive any of them.

use opthash::OptHash;
use opthash_sketch::{CountMinSketch, CountSketch, LearnedCountMin};
use opthash_stream::{FrequencyEstimator, StreamElement};

/// A frequency estimator that the [`crate::IngestEngine`] can shard.
///
/// Compared to [`opthash_stream::FrequencyEstimator`] (one arrival per call,
/// no merging), a backend must support three extra capabilities:
///
/// 1. **weighted updates** ([`SketchBackend::ingest`]) so batches of
///    identical elements collapse into one call,
/// 2. **forking** ([`SketchBackend::fork`]): producing a *delta
///    accumulator* that shares the learned/hashed structure but starts from
///    zero counts,
/// 3. **merging** ([`SketchBackend::merge`]): folding a fork's delta back
///    into a full estimator.
///
/// # Exactness contract
///
/// All statements below assume the workspace's stream data model
/// ([`StreamElement`]): an element's feature vector is identical across
/// its appearances. The batching engine relies on this — it aggregates
/// duplicate arrivals of an ID within a batch window and applies them
/// through one representative element (the first seen), so a stream that
/// presents *different* features (or a mix of featured and featureless
/// arrivals) for the same ID may be routed differently than sequential
/// per-arrival processing would route it. Only [`OptHash`], whose
/// classifier routes unstored elements, can observe the difference.
///
/// Every backend ([`CountMinSketch`], [`CountSketch`], [`LearnedCountMin`],
/// [`OptHash`]) is linear in the counts, so fork + ingest + merge over any
/// partition of a stream is bit-identical to the sequentially built
/// estimator.
///
/// # Why `Clone`?
///
/// A shard worker applies each batch to a *clone* of the shard's committed
/// snapshot and commits the clone as the new snapshot, so a panic
/// mid-batch never touches committed state. A clone costs `O(state size)`;
/// [`OptHash`] shares its learned scheme between clones, so its clones copy
/// only the bucket counters.
///
/// `Sync` is required because a scheme hot-swap
/// ([`crate::IngestEngine::swap_backend`]) shares one immutable new base
/// across every shard's channel by `Arc` until each worker has re-forked
/// from it; plain counter bundles are `Sync` automatically.
pub trait SketchBackend: Send + Sync + Clone {
    /// Applies `count` occurrences of `element`.
    ///
    /// Complexity: `O(depth)` hash-and-increment for the sketches, `O(1)`
    /// expected for [`OptHash`].
    fn ingest(&mut self, element: &StreamElement, count: u64);

    /// Applies a pre-aggregated batch of weighted updates — the unit the
    /// engine's workers hand over. Semantically identical to calling
    /// [`SketchBackend::ingest`] once per entry in order; backends may
    /// override it for locality (e.g. the Count-Min grid applies a batch
    /// row by row, keeping one 64 KB counter row cache-resident instead of
    /// striding the whole grid per update), provided the resulting state is
    /// the same as the sequential loop's.
    fn ingest_batch(&mut self, updates: &[(StreamElement, u64)]) {
        for (element, count) in updates {
            self.ingest(element, *count);
        }
    }

    /// Returns the estimated frequency of `element`.
    ///
    /// Complexity: `O(depth)` for the sketches, `O(1)` expected for stored
    /// elements of [`OptHash`] plus one classifier evaluation
    /// (`O(tree depth)` or `O(classes · features)`) for unseen elements.
    fn query(&self, element: &StreamElement) -> f64;

    /// Creates a shard-local delta accumulator: same configuration, seeds
    /// and learned structure, zero counts.
    ///
    /// Space: a fork costs the same counter memory as its parent (counters
    /// are replicated per shard). [`OptHash`]'s fork shares the learned
    /// hash table and classifier rather than copying or retraining them.
    fn fork(&self) -> Self
    where
        Self: Sized;

    /// Folds a fork's accumulated delta into this estimator.
    ///
    /// Complexity: `O(state size)` — counters are combined element-wise;
    /// no per-update work is replayed. Merging is commutative and
    /// associative, so shards can be folded in any order.
    fn merge(&mut self, shard: &Self)
    where
        Self: Sized;
}

impl SketchBackend for CountMinSketch {
    fn ingest(&mut self, element: &StreamElement, count: u64) {
        self.add(element.id, count);
    }

    fn ingest_batch(&mut self, updates: &[(StreamElement, u64)]) {
        self.add_batch(updates.iter().map(|(element, count)| (element.id, *count)));
    }

    fn query(&self, element: &StreamElement) -> f64 {
        CountMinSketch::query(self, element.id) as f64
    }

    fn fork(&self) -> Self {
        self.clone_empty()
    }

    fn merge(&mut self, shard: &Self) {
        CountMinSketch::merge(self, shard);
    }
}

impl SketchBackend for CountSketch {
    fn ingest(&mut self, element: &StreamElement, count: u64) {
        self.add(element.id, count);
    }

    fn query(&self, element: &StreamElement) -> f64 {
        // The estimator's own clamp: a frequency is never negative.
        FrequencyEstimator::estimate(self, element)
    }

    fn fork(&self) -> Self {
        self.clone_empty()
    }

    fn merge(&mut self, shard: &Self) {
        CountSketch::merge(self, shard);
    }
}

impl SketchBackend for LearnedCountMin {
    fn ingest(&mut self, element: &StreamElement, count: u64) {
        self.add(element.id, count);
    }

    fn query(&self, element: &StreamElement) -> f64 {
        LearnedCountMin::query(self, element.id) as f64
    }

    fn fork(&self) -> Self {
        self.clone_empty()
    }

    fn merge(&mut self, shard: &Self) {
        LearnedCountMin::merge(self, shard);
    }
}

impl SketchBackend for OptHash {
    fn ingest(&mut self, element: &StreamElement, count: u64) {
        self.add(element, count);
    }

    fn query(&self, element: &StreamElement) -> f64 {
        FrequencyEstimator::estimate(self, element)
    }

    fn fork(&self) -> Self {
        self.fork_empty()
    }

    fn merge(&mut self, shard: &Self) {
        self.merge_counts(shard);
    }
}
