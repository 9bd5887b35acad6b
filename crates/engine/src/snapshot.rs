//! Wait-free, epoch-stamped query snapshots.
//!
//! An [`crate::IngestEngine`] publishes everything a read needs into one
//! `SnapshotHub`: a view holding the scheme version, the scheme's base
//! backend and, per shard, a monotonically increasing publication
//! **epoch**, the applied mass and the shard's committed delta, each delta
//! an immutable `Arc`. Every read is the same sum: the base plus each
//! shard's delta under that base's scheme.
//!
//! * A worker publishes its shard's entry at every batch commit, inside the
//!   shard's control critical section, so a returned
//!   [`crate::IngestEngine::flush`] is already visible here.
//! * A scheme hot-swap ([`crate::IngestEngine::swap_backend`]) is published
//!   by the engine in one step: the new version, the new base and a blank
//!   delta for every shard. A view is therefore *all old scheme* or *all
//!   new scheme* by construction, never a torn mix, even when a poisoned
//!   shard never completes its own part of the swap.
//!
//! The view's lock wraps nothing but `Arc` stores and clones, and readers
//! never take a shard's control lock. A reader therefore never waits behind
//! batch application, a flush barrier, or a snapshot copy: the worst case
//! is the nanoseconds another thread spends swapping pointers. Every
//! publication advances the hub's generation under the lock, so a reader
//! checks its cached merged view with one atomic load.
//!
//! [`SnapshotReader`] merges the published view into one estimator (cached
//! until the generation advances) and answers point queries with a
//! [`SnapshotEstimate`]: the estimate plus an [`EpochStamp`] telling the
//! caller exactly which per-shard epochs — and how much applied mass — the
//! answer covers.

use crate::backend::SketchBackend;
use opthash_stream::StreamElement;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Which prefix of the stream a snapshot query observed: the scheme
/// version and per-shard publication epochs behind the estimate, plus the
/// applied mass those snapshots account for.
///
/// Epochs are per-shard monotone: a later stamp can never report an older
/// epoch for any shard, so two stamps are ordered by comparing them
/// pointwise. The mass lets a caller bound staleness in stream units
/// rather than wall-clock time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochStamp {
    /// The scheme version ([`crate::IngestEngine::scheme_version`]) every
    /// merged shard snapshot was built under.
    pub scheme_version: u64,
    /// Each shard's publication epoch, in shard order. An epoch advances
    /// whenever the shard commits a batch or a swap is published.
    pub epoch_per_shard: Arc<[u64]>,
    /// Total count mass applied into the stamped shard snapshots under
    /// `scheme_version` — mass admitted but not yet committed (buffered,
    /// queued, or inflight) is not included; that is exactly the staleness
    /// the stamp makes visible.
    pub mass_accounted: u64,
}

/// A wait-free point-query answer: the estimate and the [`EpochStamp`]
/// identifying the snapshot set it was computed from.
#[derive(Debug, Clone)]
pub struct SnapshotEstimate {
    /// The estimated frequency under the stamped snapshot set.
    pub estimate: f64,
    /// Which prefix of the stream the estimate observed.
    pub stamp: EpochStamp,
}

/// One shard's published state.
#[derive(Debug, Clone)]
struct ShardEntry<B> {
    /// Publication epoch.
    epoch: u64,
    /// Applied count mass `delta` accounts for.
    mass: u64,
    /// The shard's committed delta, shared with the shard channel's
    /// snapshot: publication costs one `Arc` clone, not a state copy.
    delta: Arc<B>,
}

/// Everything a read needs, replaced only under the hub's lock.
#[derive(Debug, Clone)]
struct View<B> {
    /// The scheme version of `base` and of every shard delta.
    version: u64,
    base: Arc<B>,
    shards: Vec<ShardEntry<B>>,
}

/// The engine's one published view, shared by the engine, its workers and
/// every reader.
#[derive(Debug)]
pub(crate) struct SnapshotHub<B> {
    /// Advanced under the lock by every publication, so a merged view built
    /// at the current generation is up to date. Publishers bump it with
    /// `Release` after writing the view; a reader's lock-free check
    /// `Acquire`s it only to compare with its cache, and `merge` reads it
    /// under the lock together with the view it names.
    generation: AtomicU64,
    view: Mutex<View<B>>,
}

impl<B: SketchBackend> SnapshotHub<B> {
    /// A hub at scheme version 0 over `base`, every one of `shards` shards
    /// starting from `blank` at epoch 0.
    pub fn new(base: Arc<B>, blank: &Arc<B>, shards: usize) -> Self {
        let entry = ShardEntry {
            epoch: 0,
            mass: 0,
            delta: Arc::clone(blank),
        };
        SnapshotHub {
            generation: AtomicU64::new(0),
            view: Mutex::new(View {
                version: 0,
                base,
                shards: vec![entry; shards],
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, View<B>> {
        // Nothing inside the critical sections can panic, but be total: a
        // poisoned lock still guards a fully written view.
        self.view.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes `shard`'s newly committed delta, which accounts for `mass`.
    pub fn publish(&self, shard: usize, delta: Arc<B>, mass: u64) {
        let mut view = self.lock();
        let entry = &mut view.shards[shard];
        entry.epoch += 1;
        entry.mass = mass;
        entry.delta = delta;
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Publishes a hot-swap in one step: scheme `version`, its `base`, and
    /// `blank` as every shard's delta.
    pub fn publish_swap(&self, version: u64, base: Arc<B>, blank: &Arc<B>) {
        let mut view = self.lock();
        view.version = version;
        view.base = base;
        for entry in &mut view.shards {
            entry.epoch += 1;
            entry.mass = 0;
            entry.delta = Arc::clone(blank);
        }
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// The published base backend.
    pub fn base(&self) -> Arc<B> {
        Arc::clone(&self.lock().base)
    }

    /// Merges the published view into one estimator. Only the `Arc`s are
    /// cloned under the lock; the `O(shards × state)` merge runs outside
    /// it, so a publisher never waits behind a reader.
    #[cold]
    fn merge(&self) -> MergedView<B> {
        let (generation, view) = {
            let view = self.lock();
            // The generation moves only under this lock, so it names exactly
            // the view cloned here.
            (self.generation.load(Ordering::Relaxed), view.clone())
        };
        let mut merged = (*view.base).clone();
        for entry in &view.shards {
            merged.merge(&entry.delta);
        }
        let stamp = EpochStamp {
            scheme_version: view.version,
            epoch_per_shard: view.shards.iter().map(|entry| entry.epoch).collect(),
            mass_accounted: view.shards.iter().map(|entry| entry.mass).sum(),
        };
        MergedView {
            generation,
            stamp,
            merged,
        }
    }
}

/// A reader's merged view, valid while the hub's generation stands still.
struct MergedView<B> {
    generation: u64,
    stamp: EpochStamp,
    merged: B,
}

/// A wait-free, epoch-stamped query handle over an engine's published
/// snapshots.
///
/// Obtained from [`crate::IngestEngine::snapshot_reader`]; `Clone` +
/// `Send` + `Sync`, so any number of reader threads can query concurrently
/// with ingestion — each clone keeps its own merged-view cache, so clones
/// never contend with each other. A reader remains usable after the engine
/// is finished or dropped; it then serves the last published snapshots.
///
/// A query is answered from the cached merged view when nothing has been
/// published since the last merge (one atomic load plus one backend point
/// query); otherwise the reader re-merges the latest snapshot `Arc`s —
/// `O(shards × state)`, but never blocked behind the engine's flush barrier
/// or a worker's batch application.
pub struct SnapshotReader<B: SketchBackend> {
    hub: Arc<SnapshotHub<B>>,
    cache: Mutex<Option<MergedView<B>>>,
}

impl<B: SketchBackend> Clone for SnapshotReader<B> {
    fn clone(&self) -> Self {
        SnapshotReader::new(Arc::clone(&self.hub))
    }
}

impl<B: SketchBackend> std::fmt::Debug for SnapshotReader<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotReader")
            .field("shards", &self.hub.lock().shards.len())
            .finish()
    }
}

impl<B: SketchBackend> SnapshotReader<B> {
    pub(crate) fn new(hub: Arc<SnapshotHub<B>>) -> Self {
        SnapshotReader {
            hub,
            cache: Mutex::new(None),
        }
    }

    /// Estimates `element`'s frequency from the latest published snapshot
    /// set, without waiting on ingestion — see the module docs for the
    /// staleness and consistency contract carried by the returned stamp.
    pub fn query(&self, element: &StreamElement) -> SnapshotEstimate {
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let view = fresh_view(&self.hub, &mut cache);
        SnapshotEstimate {
            estimate: view.merged.query(element),
            stamp: view.stamp.clone(),
        }
    }

    /// The estimate alone, through exclusive access: no lock and no stamp
    /// clone. The engine's synced read path answers from its own reader
    /// this way.
    pub(crate) fn estimate(&mut self, element: &StreamElement) -> f64 {
        let cache = self.cache.get_mut().unwrap_or_else(PoisonError::into_inner);
        fresh_view(&self.hub, cache).merged.query(element)
    }

    /// The stamp of the snapshot set a query issued now would observe.
    pub fn stamp(&self) -> EpochStamp {
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        fresh_view(&self.hub, &mut cache).stamp.clone()
    }
}

/// `cache`, re-merged first if anything was published since it was built.
#[inline]
fn fresh_view<'a, B: SketchBackend>(
    hub: &SnapshotHub<B>,
    cache: &'a mut Option<MergedView<B>>,
) -> &'a MergedView<B> {
    let generation = hub.generation.load(Ordering::Acquire);
    if cache
        .as_ref()
        .is_none_or(|view| view.generation != generation)
    {
        *cache = Some(hub.merge());
    }
    cache.as_ref().expect("cache was just merged")
}
