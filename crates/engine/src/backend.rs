//! The [`SketchBackend`] trait: one interface over every frequency
//! estimator in the workspace, designed around *weighted*, *mergeable*
//! updates so the sharded ingest engine can drive any of them.

use opthash::{AdaptiveOptHash, OptHash};
use opthash_sketch::{CountMinSketch, CountSketch, LearnedCountMin, MisraGries};
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
/// per-arrival processing would route it. Only the feature-consuming
/// backends ([`OptHash`]/[`AdaptiveOptHash`] classifier routing of
/// unstored elements) can observe the difference.
///
/// For the linear backends ([`CountMinSketch`] with the standard update
/// policy, [`CountSketch`], [`LearnedCountMin`], [`OptHash`]) fork + ingest +
/// merge over *any* partition of a stream reproduces the sequentially built
/// estimator exactly. [`AdaptiveOptHash`] is exact when the partition is
/// *by element ID* (each distinct ID confined to one fork) — exactly the
/// discipline the engine's hash partitioner enforces — up to Bloom
/// false positives, which a shard may resolve differently from a
/// sequential run because it cannot see bits set concurrently by sibling
/// shards; the divergence probability is bounded by the filter's
/// false-positive rate. [`MisraGries`] and the conservative-update
/// Count-Min are order-dependent: merged results may differ from
/// sequential ones but keep their deterministic error bounds.
///
/// # Why `Clone`?
///
/// The worker engine's crash-recovery protocol checkpoints each shard by
/// *cloning* its accumulated delta (snapshot = scratch state at the last
/// consistent point; recovery = clone the snapshot and replay the journal).
/// Cloning, unlike a fresh [`SketchBackend::fork`], preserves whole-stream
/// shard state — which [`AdaptiveOptHash`]'s promotion/Bloom machinery
/// needs for the exactness statement above to survive a restart. Every
/// estimator in the workspace is a plain bundle of counters and learned
/// structure, so `Clone` is derivable and costs `O(state size)`.
///
/// `Sync` is required because a scheme hot-swap
/// ([`crate::IngestEngine::swap_backend`]) shares one immutable new base
/// across every shard's channel by `Arc` until each worker has re-forked
/// from it; plain counter bundles are `Sync` automatically.
pub trait SketchBackend: Send + Sync + Clone {
    /// Applies `count` occurrences of `element`.
    ///
    /// Complexity: `O(depth)` hash-and-increment for the sketches, `O(1)`
    /// expected for the hash-table based estimators, amortized
    /// `O(capacity)` worst case for [`MisraGries`] evictions.
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
    /// elements of the learned estimators plus one classifier evaluation
    /// (`O(tree depth)` or `O(classes · features)`) for unseen elements.
    fn query(&self, element: &StreamElement) -> f64;

    /// Creates a shard-local delta accumulator: same configuration, seeds
    /// and learned structure, zero counts.
    ///
    /// Space: a fork costs the same counter memory as its parent (counters
    /// are replicated per shard), except [`MisraGries`] whose fork starts
    /// empty. Learned structures (hash table, classifier) are cloned, not
    /// retrained.
    fn fork(&self) -> Self
    where
        Self: Sized;

    /// Folds a fork's accumulated delta into this estimator.
    ///
    /// Complexity: `O(state size)` — counters are combined element-wise;
    /// no per-update work is replayed. Merging is commutative and (for the
    /// linear backends) associative, so shards can be folded in any order.
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

impl SketchBackend for MisraGries {
    fn ingest(&mut self, element: &StreamElement, count: u64) {
        self.add(element.id, count);
    }

    fn query(&self, element: &StreamElement) -> f64 {
        MisraGries::query(self, element.id) as f64
    }

    fn fork(&self) -> Self {
        self.clone_empty()
    }

    fn merge(&mut self, shard: &Self) {
        MisraGries::merge(self, shard);
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

impl SketchBackend for AdaptiveOptHash {
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
