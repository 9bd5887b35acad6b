//! Wait-free, epoch-stamped query snapshots.
//!
//! Every shard of an [`crate::IngestEngine`] owns a `PublishedSlot`: an
//! immutable `Arc` snapshot of the shard's accumulated delta, tagged with a
//! monotonically increasing **epoch** and the scheme version it was built
//! under. Workers publish into their slot at every batch commit and every
//! completed scheme hot-swap — inside the shard's control critical
//! section, in the same step that commits the batch or completes the swap,
//! so a returned [`crate::IngestEngine::flush`] or
//! [`crate::IngestEngine::swap_backend`] is already visible here. Readers
//! never take that control lock, and the slot lock itself wraps nothing but
//! an `Arc` store. A reader therefore never waits behind batch application,
//! a flush barrier, or a snapshot copy: the worst case is the nanoseconds
//! another thread spends swapping two pointers.
//!
//! [`SnapshotReader`] assembles the latest published snapshot set into a
//! merged estimator view (cached until any epoch advances) and answers
//! point queries with a [`SnapshotEstimate`]: the estimate plus an
//! [`EpochStamp`] telling the caller exactly which per-shard epochs — and
//! how much applied mass — the answer covers.
//!
//! # Consistency across hot-swaps
//!
//! A scheme hot-swap ([`crate::IngestEngine::swap_backend`]) replaces every
//! shard's delta and then the shared base, so a naive reader could merge a
//! new-scheme base with an old-scheme shard delta (or vice versa) — a torn
//! mix. Two rules prevent that:
//!
//! 1. each shard's swap publication retains the *final old-scheme delta* as
//!    `prev`, so the pre-swap view stays assemblable until the base
//!    advances;
//! 2. the engine advances the shared `BaseSlot` only after **every**
//!    shard has published its new-scheme snapshot.
//!
//! A reader that loads the base at version `v` can thus always find a
//! version-`v` snapshot for every healthy shard (current or `prev`); on a
//! mismatch — a swap racing the read — it simply reloads and retries. The
//! stamped view is therefore always *all old scheme* or *all new scheme*,
//! never a mix. (A poisoned shard that can never complete its swap is the
//! one exception: after bounded retries the reader falls back to each
//! shard's newest snapshot, which the stamp's epochs make visible.)

use crate::backend::SketchBackend;
use opthash_stream::StreamElement;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Reload attempts before a reader gives up on assembling a
/// version-consistent snapshot set and falls back to the newest published
/// snapshots (only reachable when a shard is poisoned mid-swap).
const REBUILD_RETRIES: usize = 16;

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
    /// whenever the shard commits a batch or completes a swap.
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

/// One shard's published snapshot state (behind the slot lock).
#[derive(Debug)]
struct ShardSnapshot<B> {
    /// Publication epoch; mirrored into [`PublishedSlot::epoch`] for
    /// lock-free staleness checks.
    epoch: u64,
    /// Scheme version `delta` was accumulated under.
    version: u64,
    /// Applied count mass `delta` accounts for.
    mass: u64,
    /// The shard's committed delta (immutable, shared with the shard
    /// channel's snapshot — publication costs one `Arc` clone, not a state
    /// copy).
    delta: Arc<B>,
    /// The final delta of the previous scheme version, retained across a
    /// swap so readers whose base has not advanced yet still assemble a
    /// consistent pre-swap view: `(version, mass, delta)`.
    prev: Option<(u64, u64, Arc<B>)>,
}

/// A shard's publication slot. The lock inside wraps only `Arc` stores and
/// clones — it is never held across batch application, snapshot copies,
/// or barrier waits, which is what makes snapshot reads wait-free in
/// practice.
#[derive(Debug)]
pub(crate) struct PublishedSlot<B> {
    /// Lock-free mirror of the locked state's epoch: readers compare this
    /// against their cache before deciding to rebuild.
    epoch: AtomicU64,
    state: Mutex<ShardSnapshot<B>>,
}

impl<B: SketchBackend> PublishedSlot<B> {
    /// A slot holding `delta` (an empty fork at engine construction) at
    /// epoch 0, scheme version 0.
    pub fn new(delta: Arc<B>) -> Self {
        PublishedSlot {
            epoch: AtomicU64::new(0),
            state: Mutex::new(ShardSnapshot {
                epoch: 0,
                version: 0,
                mass: 0,
                delta,
                prev: None,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ShardSnapshot<B>> {
        // A poisoned slot lock (a reader or publisher panicked mid-store —
        // nothing in the critical section can, but be total) still holds a
        // fully written state: every field is assigned before the epoch.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The latest publication epoch (lock-free).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publishes the shard's newly committed delta under the current scheme
    /// version.
    pub fn publish(&self, delta: Arc<B>, mass: u64) {
        let mut state = self.lock();
        state.delta = delta;
        state.mass = mass;
        state.epoch += 1;
        self.epoch.store(state.epoch, Ordering::Release);
    }

    /// Publishes a completed scheme swap: `delta` is the fresh (empty)
    /// snapshot under `version`, and the shard's final old-scheme delta is
    /// retained as `prev` (with its `retired_mass`) until the next swap.
    pub fn publish_swap(&self, version: u64, delta: Arc<B>, retired_mass: u64, retired: Arc<B>) {
        let mut state = self.lock();
        state.prev = Some((state.version, retired_mass, retired));
        state.version = version;
        state.mass = 0;
        state.delta = delta;
        state.epoch += 1;
        self.epoch.store(state.epoch, Ordering::Release);
    }

    /// The shard's published `(epoch, mass, delta)` under exactly
    /// `version`: the current snapshot if it matches, else the retained
    /// pre-swap delta. `None` when neither matches — the caller is racing
    /// a multi-version swap (or the shard is poisoned) and should reload
    /// the base.
    fn snapshot_for(&self, version: u64) -> Option<(u64, u64, Arc<B>)> {
        let state = self.lock();
        if state.version == version {
            return Some((state.epoch, state.mass, Arc::clone(&state.delta)));
        }
        match &state.prev {
            Some((v, mass, delta)) if *v == version => {
                Some((state.epoch, *mass, Arc::clone(delta)))
            }
            _ => None,
        }
    }

    /// The newest published snapshot regardless of version — the
    /// poisoned-shard fallback.
    fn newest(&self) -> (u64, u64, Arc<B>) {
        let state = self.lock();
        (state.epoch, state.mass, Arc::clone(&state.delta))
    }
}

/// The engine's shared base backend, versioned by completed scheme swaps.
/// Advanced only after every shard has published its new-scheme snapshot —
/// the ordering that makes torn-version reads impossible (see the module
/// docs).
#[derive(Debug)]
pub(crate) struct BaseSlot<B> {
    /// Lock-free mirror of the locked version, for staleness checks.
    version: AtomicU64,
    state: Mutex<(u64, Arc<B>)>,
}

impl<B: SketchBackend> BaseSlot<B> {
    pub fn new(base: Arc<B>) -> Self {
        BaseSlot {
            version: AtomicU64::new(0),
            state: Mutex::new((0, base)),
        }
    }

    /// The latest published scheme version (lock-free).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The current `(version, base)` pair, read consistently.
    fn load(&self) -> (u64, Arc<B>) {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        (state.0, Arc::clone(&state.1))
    }

    /// Publishes the post-swap base under its new version.
    pub fn store(&self, version: u64, base: Arc<B>) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state = (version, base);
        self.version.store(version, Ordering::Release);
    }
}

/// Everything a reader needs: the versioned base plus one slot per shard.
#[derive(Debug)]
pub(crate) struct SnapshotHub<B> {
    pub base: BaseSlot<B>,
    pub shards: Vec<Arc<PublishedSlot<B>>>,
}

/// A reader's cached merged view, valid while no epoch advances.
struct MergedView<B> {
    version: u64,
    epochs: Vec<u64>,
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
/// A query is answered from the cached merged view when no shard has
/// published since the last rebuild (a handful of atomic loads plus one
/// backend point query); otherwise the reader re-merges the latest
/// snapshot `Arc`s — `O(shards × state)`, but never blocked behind the
/// engine's flush barrier or a worker's batch application.
pub struct SnapshotReader<B: SketchBackend> {
    hub: Arc<SnapshotHub<B>>,
    cache: Mutex<Option<MergedView<B>>>,
}

impl<B: SketchBackend> Clone for SnapshotReader<B> {
    fn clone(&self) -> Self {
        SnapshotReader {
            hub: Arc::clone(&self.hub),
            cache: Mutex::new(None),
        }
    }
}

impl<B: SketchBackend> std::fmt::Debug for SnapshotReader<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotReader")
            .field("shards", &self.hub.shards.len())
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
        let view = self.fresh_view(&mut cache);
        SnapshotEstimate {
            estimate: view.merged.query(element),
            stamp: view.stamp.clone(),
        }
    }

    /// The stamp of the snapshot set a query issued now would observe.
    pub fn stamp(&self) -> EpochStamp {
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        self.fresh_view(&mut cache).stamp.clone()
    }

    fn fresh_view<'a>(&self, cache: &'a mut Option<MergedView<B>>) -> &'a MergedView<B> {
        let stale = match cache.as_ref() {
            None => true,
            Some(view) => {
                self.hub.base.version() != view.version
                    || self
                        .hub
                        .shards
                        .iter()
                        .zip(&view.epochs)
                        .any(|(slot, &epoch)| slot.epoch() != epoch)
            }
        };
        if stale {
            *cache = Some(self.rebuild());
        }
        cache.as_ref().expect("cache was just rebuilt")
    }

    /// Assembles a version-consistent merged view; retries when a swap
    /// races the read, and falls back to newest-available snapshots only
    /// when a shard can never reach the base's version (poisoned mid-swap).
    fn rebuild(&self) -> MergedView<B> {
        for _ in 0..REBUILD_RETRIES {
            let (version, base) = self.hub.base.load();
            let mut epochs = Vec::with_capacity(self.hub.shards.len());
            let mut deltas = Vec::with_capacity(self.hub.shards.len());
            let mut mass = 0u64;
            let mut consistent = true;
            for slot in &self.hub.shards {
                match slot.snapshot_for(version) {
                    Some((epoch, shard_mass, delta)) => {
                        epochs.push(epoch);
                        mass += shard_mass;
                        deltas.push(delta);
                    }
                    None => {
                        consistent = false;
                        break;
                    }
                }
            }
            if consistent {
                return Self::assemble(version, base, epochs, mass, deltas);
            }
        }
        // Fallback: a shard is stuck at another version (poisoned mid-swap).
        // Serve the newest snapshot of every shard; the per-shard epochs in
        // the stamp make the inconsistency observable instead of silent.
        let (version, base) = self.hub.base.load();
        let mut epochs = Vec::with_capacity(self.hub.shards.len());
        let mut deltas = Vec::with_capacity(self.hub.shards.len());
        let mut mass = 0u64;
        for slot in &self.hub.shards {
            let (epoch, shard_mass, delta) = slot.newest();
            epochs.push(epoch);
            mass += shard_mass;
            deltas.push(delta);
        }
        Self::assemble(version, base, epochs, mass, deltas)
    }

    fn assemble(
        version: u64,
        base: Arc<B>,
        epochs: Vec<u64>,
        mass: u64,
        deltas: Vec<Arc<B>>,
    ) -> MergedView<B> {
        let mut merged = (*base).clone();
        for delta in &deltas {
            merged.merge(delta);
        }
        let stamp = EpochStamp {
            scheme_version: version,
            epoch_per_shard: epochs.clone().into(),
            mass_accounted: mass,
        };
        MergedView {
            version,
            epochs,
            stamp,
            merged,
        }
    }
}
