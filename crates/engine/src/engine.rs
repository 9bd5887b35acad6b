//! The sharded, batched, fault-isolated [`IngestEngine`].

use crate::backend::SketchBackend;
use crate::error::EngineError;
use crate::fault::{self, FaultEvent, FaultInjector, FaultLog, SharedFaultLog};
use crate::queue::{BatchData, ControlInner, ShardChannel, ShardCounters};
use crate::snapshot::{
    BaseSlot, EpochStamp, PublishedSlot, SnapshotEstimate, SnapshotHub, SnapshotReader,
};
use crate::worker::{spawn_worker, ShardHandle};
use opthash_stream::{Stream, StreamElement};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the engine waits on a shard condvar before re-checking worker
/// health: short enough that a dead worker is re-forked promptly, long
/// enough that a healthy blocked engine costs ~no CPU.
const SUPERVISE_TICK: Duration = Duration::from_millis(2);

/// One-multiply Fibonacci mixer (xor-fold, golden-ratio multiply,
/// xor-fold): the engine's stateless router hash. The multiplier choice is
/// load-bearing: with a multiplier `C` close to `2^64` (e.g. the first
/// MurmurHash3 constant), `x * C mod 2^64 ≈ 2^64 − x·(2^64 − C)` sits in a
/// sliver just below all-ones for small dense IDs, so the high 32 bits are
/// nearly constant and dense universes route almost entirely to the last
/// shard. The golden-ratio multiplier `⌊2^64/φ⌋` advances the high bits by
/// ≈0.618·2^64 per consecutive key (Fibonacci hashing), spreading dense and
/// strided IDs evenly across shards (high bits) and batch slots (low bits);
/// the leading xor-fold propagates high key bits downward so IDs differing
/// only above bit 33 still mix.
#[inline]
fn mix64(x: u64) -> u64 {
    let z = (x ^ (x >> 33)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^ (z >> 29)
}

/// Configuration of an [`IngestEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of shards the key space is hash-partitioned into. Each shard
    /// owns a fork of the backend and a persistent worker thread.
    pub shards: usize,
    /// Number of *distinct* elements a shard buffers before its batch is
    /// dispatched. Larger batches aggregate more duplicate arrivals (a big
    /// win on skewed streams) at the cost of staleness and buffer memory.
    pub batch_capacity: usize,
    /// Bounded depth of each shard's worker queue, in batches. A producer
    /// that dispatches to a full queue blocks until the worker drains it.
    pub queue_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 4,
            batch_capacity: 8_192,
            queue_capacity: 8,
        }
    }
}

impl EngineConfig {
    /// A configuration with `shards` shards and the remaining defaults.
    pub fn with_shards(shards: usize) -> Self {
        EngineConfig {
            shards,
            ..EngineConfig::default()
        }
    }

    /// Sets the per-shard batch capacity.
    pub fn batch_capacity(mut self, batch_capacity: usize) -> Self {
        self.batch_capacity = batch_capacity;
        self
    }

    /// Sets the per-shard worker queue depth, in batches.
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }
}

/// Counters describing what an [`IngestEngine`] has done so far — a
/// consistent snapshot assembled by [`IngestEngine::stats`].
///
/// [`EngineStats::unaccounted_mass`] audits where the admitted mass
/// currently sits (applied, buffered, queued, or quarantined); it must be
/// exactly zero at every instant, and in particular after a
/// [`IngestEngine::flush`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Arrivals admitted into the engine (each ingest call, and each
    /// element of a bulk slice, is one arrival).
    pub elements: u64,
    /// Count mass admitted into the engine.
    pub mass: u64,
    /// Weight-0 updates rejected at the API boundary (they carry no mass
    /// and are not admitted).
    pub zero_weight_rejections: u64,
    /// Flush passes performed (explicit or query-forced).
    pub flushes: u64,
    /// Weighted updates applied to shard backends. The ratio of admitted
    /// elements to applied updates is the batching win: duplicate arrivals
    /// of an element within a batch collapse into one update.
    pub applied_updates: u64,
    /// Count mass applied to shard backends.
    pub applied_mass: u64,
    /// Distinct elements currently pending in shard batch buffers.
    pub buffered_updates: u64,
    /// Count mass currently pending in shard batch buffers.
    pub buffered_mass: u64,
    /// Count mass dispatched to worker queues but not yet applied.
    pub queued_mass: u64,
    /// Pre-aggregated updates set aside in quarantine: poison-pill batches,
    /// and batches a poisoned shard could not take.
    pub quarantined_updates: u64,
    /// Count mass set aside in quarantine.
    pub quarantined_mass: u64,
    /// Batch application attempts that panicked (caught and retried or
    /// quarantined).
    pub batch_failures: u64,
    /// Shard workers re-forked by the supervisor after a death.
    pub worker_restarts: u64,
}

impl EngineStats {
    /// Arrivals admitted into the engine.
    pub fn ingested_elements(&self) -> u64 {
        self.elements
    }

    /// Count mass admitted into the engine.
    pub fn ingested_mass(&self) -> u64 {
        self.mass
    }

    /// Average number of arrivals collapsed into one applied update
    /// (1.0 = no aggregation; higher is better).
    pub fn aggregation_factor(&self) -> f64 {
        if self.applied_updates == 0 {
            1.0
        } else {
            self.ingested_elements() as f64 / self.applied_updates as f64
        }
    }

    /// Admitted mass not locatable in the engine (not applied, buffered,
    /// queued, or quarantined). Zero at all times; anything else means mass
    /// was lost (negative: double-counted).
    pub fn unaccounted_mass(&self) -> i128 {
        self.mass as i128
            - self.applied_mass as i128
            - self.buffered_mass as i128
            - self.queued_mass as i128
            - self.quarantined_mass as i128
    }
}

/// One shard's pending batch: a small open-addressing table keyed by element
/// ID that pre-aggregates duplicate arrivals into weighted updates.
///
/// Layout is chosen for the ingest hot path: the probe loop touches only a
/// flat `(id, count)` array (16 bytes per slot, one cache line per arrival
/// for the hot head of a skewed stream). Feature vectors — needed only by
/// the learned backends for elements that carry them — live in a lazily
/// allocated side table that the probe loop never reads. A slot is empty
/// iff its count is zero: weight-0 updates are rejected at the engine API
/// boundary ([`EngineError::ZeroWeight`]) precisely so that a real arrival
/// can never be mistaken for an empty slot.
///
/// The table is sized for a load factor of at most 3/4 at the batch limit,
/// so an upsert probes O(1) expected slots. The engine dispatches a buffer
/// the moment it reaches its limit, so it never holds more than `limit`
/// distinct elements and never needs to grow.
#[derive(Debug)]
struct BatchBuffer {
    /// `(element id, pending count)`; `count == 0` marks an empty slot.
    /// Length is always a power of two.
    entries: Vec<(u64, u64)>,
    /// Parallel side table holding the first-seen element for IDs whose
    /// features are non-empty; allocated on first such insert.
    featured: Vec<Option<StreamElement>>,
    len: usize,
    limit: usize,
}

impl BatchBuffer {
    fn new(batch_capacity: usize) -> Self {
        let limit = batch_capacity.max(1);
        // Size for a maximum load factor of 3/4: expected probe chains stay
        // short (the table is far emptier than that for most of a window)
        // while the cache footprint per unit of batch capacity stays small.
        let slots = (limit * 4 / 3 + 1).next_power_of_two();
        BatchBuffer {
            entries: vec![(0, 0); slots],
            featured: Vec::new(),
            len: 0,
            limit,
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `count > 0` arrivals of `element`. The element is cloned only
    /// when a *featured* element occupies a slot for the first time —
    /// duplicate arrivals (the common case on skewed streams) touch nothing
    /// but the 16-byte entry.
    ///
    /// Returns `true` when this upsert brought the buffer to its batch
    /// limit — computed on the insert branch only, so the duplicate-bump
    /// hot path pays for no limit check at all.
    #[inline]
    fn upsert(&mut self, hash: u64, element: &StreamElement, count: u64) -> bool {
        debug_assert!(count > 0, "zero-weight updates are rejected upstream");
        let key = element.id.raw();
        // Deriving the mask from `entries.len()` (a power of two) lets the
        // compiler prove the probe index in bounds and elide the checks.
        let mask = self.entries.len() - 1;
        let mut idx = hash as usize & mask;
        loop {
            let entry = &mut self.entries[idx];
            if entry.1 != 0 {
                if entry.0 == key {
                    entry.1 += count;
                    return false;
                }
                idx = (idx + 1) & mask;
                continue;
            }
            *entry = (key, count);
            if !element.features.is_empty() {
                if self.featured.is_empty() {
                    self.featured = vec![None; self.entries.len()];
                }
                self.featured[idx] = Some(element.clone());
            }
            self.len += 1;
            debug_assert!(
                self.len <= self.limit,
                "a buffer is dispatched the moment it reaches its limit"
            );
            return self.len >= self.limit;
        }
    }

    /// Requests the cache line of `hash`'s home slot ahead of its upsert.
    /// Issued from [`IngestEngine::ingest_batch`]'s lookahead so that cold
    /// slots are already in cache when the probe reaches them.
    #[inline]
    #[allow(unsafe_code)]
    fn prefetch(&self, hash: u64) {
        let idx = hash as usize & (self.entries.len() - 1);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `idx` is in bounds by the mask, and prefetching any
        // mapped address has no observable effect beyond the caches.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(self.entries.as_ptr().add(idx).cast::<i8>(), _MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = idx;
    }

    /// Count mass currently pending in the buffer. Computed by scanning the
    /// slot table so the upsert hot path doesn't maintain a running total;
    /// callers are cold paths (stats snapshots).
    fn pending_mass(&self) -> u64 {
        self.entries.iter().map(|&(_, count)| count).sum()
    }

    /// Drains every pending entry into an immutable batch for dispatch.
    fn drain_to_batch(&mut self) -> BatchData {
        let mut updates = Vec::with_capacity(self.len);
        let mut mass = 0u64;
        for idx in 0..self.entries.len() {
            let (key, count) = self.entries[idx];
            if count == 0 {
                continue;
            }
            self.entries[idx] = (0, 0);
            mass += count;
            match self.featured.get_mut(idx).and_then(Option::take) {
                Some(element) => updates.push((element, count)),
                None => updates.push((StreamElement::without_features(key), count)),
            }
        }
        self.len = 0;
        BatchData { updates, mass }
    }
}

/// A sharded, batched, fault-isolated ingestion front-end for any
/// [`SketchBackend`].
///
/// Arrivals are hash-partitioned by element ID across `N` shards. Each shard
/// buffers its arrivals in a pre-aggregating batch (duplicate IDs collapse
/// into one weighted update — a large win on the skewed streams the paper
/// studies). Full batches are fed through a bounded queue to the shard's
/// **persistent worker thread**, so application overlaps ingestion and all
/// cores stay busy between flushes. When a shard's queue is full the
/// ingesting thread blocks until the worker drains it. An idle worker
/// sleeps on its queue's condvar until a batch, a swap or shutdown wakes
/// it, so it costs no CPU.
///
/// # Two read paths
///
/// * [`IngestEngine::query`] is **wait-free**: it answers from the latest
///   epoch-stamped snapshot set the workers have published (see
///   [`crate::snapshot`]), never touching the flush barrier, and returns a
///   [`SnapshotEstimate`] whose [`EpochStamp`] says exactly which prefix
///   of the stream it observed. [`IngestEngine::snapshot_reader`] hands
///   the same capability to other threads.
/// * [`IngestEngine::query_synced`] is **barrier-synced**: it flushes,
///   waits for every shard to drain, and merges the shard snapshots
///   (cached until the next ingest), so the answer covers every admitted
///   arrival.
///
/// After a flush with no further ingestion the two paths agree exactly.
///
/// # Robustness
///
/// The engine treats failure as a first-class input (see the crate-level
/// docs for the full model): batch application is panic-isolated,
/// poison-pill batches are quarantined after a bounded number of attempts,
/// dead workers are re-forked and resume from their shard's committed
/// snapshot and surviving queue, and every such event is recorded in the
/// [`FaultLog`]. The fallible operations return
/// [`EngineError`] instead of panicking, and
/// [`EngineStats::unaccounted_mass`] proves no admitted arrival is ever
/// silently dropped.
///
/// # Exactness
///
/// For the linear backends the engine is bit-identical to feeding the
/// backend sequentially. Exactness assumes each ID's features are
/// identical across appearances, as [`StreamElement`] specifies: within a
/// batch window duplicate arrivals are applied through the ID's first-seen
/// element (see [`SketchBackend`] for the full contract).
///
/// # Memory
///
/// The engine keeps up to `2 × shards + 3` copies of the backend's state:
///
/// * the engine's base backend;
/// * the snapshot hub's copy of that base, which readers merge onto;
/// * per shard, the committed snapshot (the published query snapshot
///   shares its allocation), plus the worker's working copy while it
///   applies a batch;
/// * one merged view: the barrier path's cached merge, or before the first
///   synced query the empty fork every shard starts from.
///
/// Every copy of an [`opthash::OptHash`] shares one hash table and
/// classifier, so for it a copy is just its bucket counters. On top of
/// that come each shard's batch buffer and up to `queue_capacity` batches
/// per shard in flight, trading memory for ingest throughput. Each
/// [`SnapshotReader`] that has answered a query (the engine's own, once
/// [`IngestEngine::query`] is used) caches one more merged view, and after a
/// hot-swap every shard's slot retains its retired delta until the next
/// swap.
pub struct IngestEngine<B: SketchBackend> {
    base: B,
    buffers: Vec<BatchBuffer>,
    handles: Vec<ShardHandle<B>>,
    merged: Option<B>,
    hub: Arc<SnapshotHub<B>>,
    reader: SnapshotReader<B>,
    elements: u64,
    mass: u64,
    zero_weight_rejections: u64,
    flushes: u64,
    /// Number of completed [`IngestEngine::swap_backend`] scheme swaps.
    scheme_version: u64,
    dirty: bool,
    faults: FaultInjector,
    fault_log: SharedFaultLog,
}

impl<B: SketchBackend + 'static> IngestEngine<B> {
    /// Wraps `backend` in an engine with the given configuration. The
    /// per-shard worker threads start immediately and live until the engine
    /// is finished or dropped.
    ///
    /// The backend may already hold state (e.g. a trained
    /// [`opthash::OptHash`] with prefix counts); that state is preserved in
    /// the base copy and never double-counted by shard merges.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero.
    pub fn new(backend: B, config: EngineConfig) -> Self {
        assert!(config.shards > 0, "engine needs at least one shard");
        let buffers = (0..config.shards)
            .map(|_| BatchBuffer::new(config.batch_capacity))
            .collect();
        let faults = FaultInjector::new();
        let fault_log: SharedFaultLog = Arc::new(Mutex::new(FaultLog::default()));
        // Every shard's query-snapshot slot and channel snapshot is seeded
        // with ONE shared empty fork (both only ever replace the `Arc`
        // wholesale, never write through it, so sharing is sound); the
        // hub's base starts as a copy of the (possibly pre-trained) backend
        // at scheme version 0. Sharing keeps construction at a single fork
        // regardless of shard count — engine construction sits inside
        // latency-sensitive paths like the bench's per-pass setup.
        let blank = Arc::new(backend.fork());
        let slots: Vec<Arc<PublishedSlot<B>>> = (0..config.shards)
            .map(|_| Arc::new(PublishedSlot::new(Arc::clone(&blank))))
            .collect();
        let hub = Arc::new(SnapshotHub {
            base: BaseSlot::new(Arc::new(backend.clone())),
            shards: slots.clone(),
        });
        let reader = SnapshotReader::new(Arc::clone(&hub));
        let handles = slots
            .into_iter()
            .enumerate()
            .map(|(shard, slot)| {
                let cell = Arc::new(ShardChannel::new(
                    Arc::clone(&blank),
                    config.queue_capacity,
                    slot,
                ));
                let thread = spawn_worker(
                    Arc::clone(&cell),
                    Arc::clone(&fault_log),
                    faults.clone(),
                    shard,
                    0,
                );
                ShardHandle {
                    cell,
                    thread: Some(thread),
                    generation: 0,
                    poison_logged: false,
                }
            })
            .collect();
        IngestEngine {
            base: backend,
            buffers,
            handles,
            merged: None,
            hub,
            reader,
            elements: 0,
            mass: 0,
            zero_weight_rejections: 0,
            flushes: 0,
            scheme_version: 0,
            dirty: false,
            faults,
            fault_log,
        }
    }

    /// Handle for programming deterministic faults into this engine (only
    /// effective with the `failpoints` cargo feature; see [`crate::fault`]).
    pub fn fault_injector(&self) -> FaultInjector {
        self.faults.clone()
    }

    /// Snapshot of the robustness events this engine has handled.
    pub fn fault_log(&self) -> FaultLog {
        self.fault_log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// A consistent snapshot of the engine's counters.
    pub fn stats(&self) -> EngineStats {
        let mut counters = ShardCounters::default();
        for handle in &self.handles {
            // Each shard's counters move only under its control lock, and
            // the engine (the only thread crediting queued mass) is the
            // caller, so the ledger identity holds at this instant.
            counters.absorb(&handle.cell.lock_always().counters);
        }
        let mut stats = EngineStats {
            elements: self.elements,
            mass: self.mass,
            zero_weight_rejections: self.zero_weight_rejections,
            flushes: self.flushes,
            applied_updates: counters.applied_updates,
            applied_mass: counters.applied_mass,
            queued_mass: counters.queued_mass,
            quarantined_updates: counters.quarantined_updates,
            quarantined_mass: counters.quarantined_mass,
            batch_failures: counters.batch_failures,
            worker_restarts: counters.worker_restarts,
            ..EngineStats::default()
        };
        for buffer in &self.buffers {
            stats.buffered_updates += buffer.len as u64;
            stats.buffered_mass += buffer.pending_mass();
        }
        stats
    }

    /// The pre-aggregated updates of every quarantined batch — poison
    /// pills, and batches dispatched to a poisoned shard — in shard order:
    /// the mass the engine refused to lose silently. A caller can inspect
    /// or re-apply them (e.g. to a fresh engine after fixing the underlying
    /// fault).
    pub fn quarantined(&self) -> Vec<(StreamElement, u64)> {
        let mut updates = Vec::new();
        for handle in &self.handles {
            let inner = handle.cell.lock_always();
            for batch in &inner.quarantined {
                updates.extend(batch.updates.iter().cloned());
            }
        }
        updates
    }

    /// Accepts one arrival.
    #[inline]
    pub fn ingest(&mut self, element: &StreamElement) -> Result<(), EngineError> {
        self.ingest_weighted(element, 1)
    }

    /// Accepts `count` arrivals of `element` at once.
    ///
    /// # Errors
    ///
    /// * [`EngineError::ZeroWeight`] — `count == 0` (counted in
    ///   [`EngineStats::zero_weight_rejections`]).
    /// * [`EngineError::ShardPoisoned`] — the arrival's batch was dispatched
    ///   to a fenced-off shard. The arrival is still admitted: its batch
    ///   sits in that shard's quarantine ([`IngestEngine::quarantined`]).
    #[inline]
    pub fn ingest_weighted(
        &mut self,
        element: &StreamElement,
        count: u64,
    ) -> Result<(), EngineError> {
        self.faults.hit_result_at("engine::ingest", None)?;
        if count == 0 {
            self.zero_weight_rejections += 1;
            return Err(EngineError::ZeroWeight { id: element.id });
        }
        self.elements += 1;
        self.mass += count;
        self.dirty = true;
        self.ingest_one(mix64(element.id.raw()), element, count)
    }

    /// Accepts a slice of arrivals — the engine's preferred bulk path.
    ///
    /// Beyond amortizing per-call bookkeeping, each arrival's batch slot is
    /// prefetched a few elements ahead, hiding the cache-miss latency of
    /// cold (tail) elements behind the work of the hot head. An error stops
    /// the slice; every arrival up to and including the failing one is
    /// admitted, exactly as if each had been ingested on its own.
    pub fn ingest_batch(&mut self, elements: &[StreamElement]) -> Result<(), EngineError> {
        /// How many arrivals ahead to prefetch: far enough to cover an
        /// L2/L3 miss, near enough to stay in the prefetch queues. A power
        /// of two, so the hash-ring index below is a mask.
        const LOOKAHEAD: usize = 16;
        self.faults.hit_result_at("engine::ingest", None)?;
        // The admitted counts are settled once for the whole slice instead
        // of per element — this loop is the engine's hottest path.
        // Splitting the slice at `len - LOOKAHEAD` makes the prefetch
        // unconditional in the main loop (zip bounds it) and leaves a short
        // prefetch-free tail. A LOOKAHEAD-deep hash ring carries each
        // lookahead hash forward to its own arrival, so every ID is mixed
        // exactly once: the ring slot read for arrival `i` is the slot
        // written at arrival `i - LOOKAHEAD` (same slot, period LOOKAHEAD).
        let mut ring = [0u64; LOOKAHEAD];
        for (slot, element) in ring.iter_mut().zip(elements.iter()) {
            *slot = mix64(element.id.raw());
        }
        let split = elements.len().saturating_sub(LOOKAHEAD);
        let (head, tail) = elements.split_at(split);
        // `get`, not indexing: a slice shorter than LOOKAHEAD has an empty
        // `head`, and `elements[LOOKAHEAD..]` would panic before the zip
        // could bound it.
        let upcoming = elements.get(LOOKAHEAD..).unwrap_or(&[]);
        let mut position = 0usize;
        let mut result = Ok(());
        for (element, upcoming) in head.iter().zip(upcoming.iter()) {
            let hash = ring[position & (LOOKAHEAD - 1)];
            let ahead = mix64(upcoming.id.raw());
            ring[position & (LOOKAHEAD - 1)] = ahead;
            position += 1;
            self.buffers[self.shard_of(ahead)].prefetch(ahead);
            if let Err(err) = self.ingest_one(hash, element, 1) {
                result = Err(err);
                break;
            }
        }
        if result.is_ok() {
            for element in tail {
                let hash = ring[position & (LOOKAHEAD - 1)];
                position += 1;
                if let Err(err) = self.ingest_one(hash, element, 1) {
                    result = Err(err);
                    break;
                }
            }
        }
        // Every arrival up to and including a failing one was upserted into
        // its shard buffer before dispatch could error, so the processed
        // prefix is admitted even when propagating — otherwise
        // unaccounted_mass() goes negative and, were `dirty` still false, a
        // later query would skip flushing those arrivals.
        if position > 0 {
            self.elements += position as u64;
            self.mass += position as u64;
            self.dirty = true;
        }
        result
    }

    /// The shard that owns `hash`: multiply-shift on the high bits, so the
    /// low bits stay free to index the buffer's slot table.
    #[inline(always)]
    fn shard_of(&self, hash: u64) -> usize {
        (((hash >> 32) * self.buffers.len() as u64) >> 32) as usize
    }

    /// Buffers one admitted, non-zero arrival (`hash` is its `mix64`): one
    /// shard lookup, one probe, and the batch-limit check only on the rare
    /// insert branch inside `upsert`. The arrival that fills a buffer
    /// dispatches it, so a buffer never holds more than its batch capacity.
    /// The caller credits the admitted counts.
    #[inline(always)]
    fn ingest_one(
        &mut self,
        hash: u64,
        element: &StreamElement,
        count: u64,
    ) -> Result<(), EngineError> {
        let shard = self.shard_of(hash);
        if self.buffers[shard].upsert(hash, element, count) {
            self.dispatch(shard)?;
        }
        Ok(())
    }

    /// Accepts a whole stream in arrival order.
    pub fn ingest_stream(&mut self, stream: &Stream) -> Result<(), EngineError> {
        self.ingest_batch(stream.as_slice())
    }

    /// Drains `shard`'s buffer and hands the batch to its worker. A full
    /// queue blocks the caller until the worker drains it — the engine's
    /// one overload behaviour — supervising between waits, so a dead
    /// worker is re-forked rather than waited on.
    ///
    /// A poisoned shard's worker never drains again. A batch sent to it
    /// goes to the shard's quarantine, so its mass stays accounted and
    /// [`IngestEngine::quarantined`] can hand it back.
    fn dispatch(&mut self, shard: usize) -> Result<(), EngineError> {
        let data = Arc::new(self.buffers[shard].drain_to_batch());
        let cell = Arc::clone(&self.handles[shard].cell);
        while !cell.try_push(&data, &self.fault_log, shard)? {
            self.supervise();
            cell.wait(SUPERVISE_TICK, ControlInner::has_room);
        }
        Ok(())
    }

    /// Detects dead shard workers and re-forks replacements.
    ///
    /// The supervisor requeues any batch that was inflight when the worker
    /// died, and the replacement starts from the shard's committed snapshot
    /// and drains the surviving queue — so a worker death loses nothing.
    /// The engine supervises automatically whenever it waits on a shard
    /// (dispatch to a full queue, flush barriers, swaps, `finish`); calling
    /// this directly is only needed to reap a death while the engine is
    /// otherwise idle.
    pub fn supervise(&mut self) {
        for (shard, handle) in self.handles.iter_mut().enumerate() {
            // A finished thread with work left behind died; one whose closed
            // channel is drained exited.
            let died = handle.thread.as_ref().is_some_and(JoinHandle::is_finished)
                && !handle.cell.closed_and_drained();
            if !died {
                continue;
            }
            if let Some(thread) = handle.thread.take() {
                let _ = thread.join();
            }
            if handle.cell.lock_always().poisoned {
                if !handle.poison_logged {
                    fault::record(&self.fault_log, FaultEvent::ShardPoisoned { shard });
                    handle.poison_logged = true;
                }
                continue;
            }
            // The death may have struck mid-batch: disposition the inflight
            // batch exactly like a caught batch panic (retry, then
            // quarantine), since the committed snapshot excludes it.
            handle.cell.fail_inflight(&self.fault_log, shard);
            handle.generation += 1;
            handle.cell.lock_always().counters.worker_restarts += 1;
            fault::record(
                &self.fault_log,
                FaultEvent::WorkerRestarted {
                    shard,
                    generation: handle.generation,
                },
            );
            handle.thread = Some(spawn_worker(
                Arc::clone(&handle.cell),
                Arc::clone(&self.fault_log),
                self.faults.clone(),
                shard,
                handle.generation,
            ));
        }
    }

    /// Dispatches every buffered batch and waits until every shard's
    /// committed snapshot covers all admitted arrivals.
    ///
    /// Pending batches are dispatched like any other, and the barrier waits
    /// for every shard to drain (supervising — and if necessary restarting
    /// — workers while it waits). Every commit is published, so a returned
    /// flush is visible to wait-free reads. Called automatically before a
    /// synced query.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardPoisoned`] if a shard's state is unrecoverable;
    /// the remaining shards are still flushed as far as possible.
    pub fn flush(&mut self) -> Result<(), EngineError> {
        if !self.dirty {
            return Ok(());
        }
        self.merged = None;
        self.flushes += 1;
        // A poisoned shard must not stop the others from flushing: record
        // the first error but keep dispatching and keep the barrier, so
        // every healthy shard still drains.
        let mut first_err = self.dispatch_all().err();
        if let Err(err) = self.barrier() {
            first_err.get_or_insert(err);
        }
        if let Some(err) = first_err {
            return Err(err);
        }
        self.dirty = false;
        Ok(())
    }

    /// Dispatches every non-empty shard buffer (for flush, swap and
    /// finish). Keeps going past a poisoned shard and returns the first
    /// error.
    fn dispatch_all(&mut self) -> Result<(), EngineError> {
        let mut first_err = None;
        for shard in 0..self.buffers.len() {
            if !self.buffers[shard].is_empty() {
                if let Err(err) = self.dispatch(shard) {
                    first_err.get_or_insert(err);
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Flush barrier: waits for every shard to drain.
    fn barrier(&mut self) -> Result<(), EngineError> {
        self.wait_all(ControlInner::is_drained)
    }

    /// Waits shard by shard until `done` holds for the shard's control
    /// state, supervising between timed waits so a dead worker is re-forked
    /// to finish the work. Keeps going past a poisoned shard and returns
    /// the first error.
    fn wait_all(&mut self, done: impl Fn(&ControlInner<B>) -> bool) -> Result<(), EngineError> {
        let mut first_err = None;
        for shard in 0..self.handles.len() {
            let cell = Arc::clone(&self.handles[shard].cell);
            loop {
                let (finished, poisoned) = cell.wait(SUPERVISE_TICK, &done);
                if poisoned {
                    // Reap the dead worker and log the poisoning, then move
                    // on: the remaining shards are still waited for.
                    self.supervise();
                    first_err.get_or_insert(EngineError::ShardPoisoned { shard });
                    break;
                }
                if finished {
                    break;
                }
                self.supervise();
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// How many scheme hot-swaps ([`IngestEngine::swap_backend`]) this
    /// engine has completed. Version 0 is the backend the engine was built
    /// with.
    pub fn scheme_version(&self) -> u64 {
        self.scheme_version
    }

    /// Atomically replaces the engine's backend with `new_base` and returns
    /// the **retired** backend holding every count admitted under the old
    /// scheme — the online re-training hot-swap.
    ///
    /// No thread is stalled, stopped, or restarted: pending buffers are
    /// dispatched, then each shard is handed a swap request that its worker
    /// picks up as the next queue event after draining its batches. The
    /// worker retires the shard's committed snapshot and commits a fresh
    /// [`SketchBackend::fork`] of the new base in its place; the retired
    /// per-shard deltas are [`SketchBackend::merge`]d into the old base,
    /// which is returned. A worker that dies mid-swap is re-forked by the
    /// supervisor and redoes the still-pending request, so the swap
    /// completes exactly once per shard.
    ///
    /// The admitted counts are untouched: admitted mass was either
    /// applied (it leaves inside the returned backend), quarantined, or
    /// still buffered/queued — none of which the swap changes — so
    /// [`EngineStats::unaccounted_mass`] stays 0 across every swap.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardPoisoned`] if a shard's state is unrecoverable;
    /// healthy shards still complete the swap, but the retired backend is
    /// withheld because it would under-count the poisoned shard's delta.
    pub fn swap_backend(&mut self, new_base: B) -> Result<B, EngineError> {
        self.merged = None;
        let mut first_err = self.dispatch_all().err();
        // Publish the new scheme to every shard, then wait for each worker
        // to retire its delta, supervising while waiting so a worker that
        // dies mid-swap is re-forked to redo it.
        let fresh = new_base.clone();
        let shared = Arc::new(new_base);
        let version = self.scheme_version + 1;
        for handle in &self.handles {
            handle.cell.request_swap(version, Arc::clone(&shared));
        }
        if let Err(err) = self.wait_all(|inner| inner.swap_request.is_none()) {
            first_err.get_or_insert(err);
        }
        let mut retired = std::mem::replace(&mut self.base, fresh);
        for handle in &self.handles {
            if let Some(delta) = handle.cell.take_retired() {
                retired.merge(&delta);
            }
        }
        self.scheme_version = version;
        // Advance the snapshot base only now, after every healthy shard has
        // published its new-scheme slot: a reader that loads the old base
        // still finds each shard's pre-swap delta retained as `prev`, so no
        // stamp ever mixes scheme versions.
        self.hub.base.store(version, shared);
        // Every admitted arrival is either applied (inside the retired
        // backend), quarantined, or was just re-forked away — the fresh
        // snapshots cover all future state, so no flush is pending.
        self.dirty = false;
        match first_err {
            Some(err) => Err(err),
            None => Ok(retired),
        }
    }

    /// Flushes all pending batches and returns the merged estimator view
    /// that [`IngestEngine::query_synced`] answers from. The merge costs
    /// `O(shards × state size)` but is cached: repeated queries without
    /// interleaved ingestion reuse the same merged backend.
    fn merged(&mut self) -> Result<&B, EngineError> {
        self.flush()?;
        if self.merged.is_none() {
            let mut merged = self.base.clone();
            for (shard, handle) in self.handles.iter().enumerate() {
                let inner = handle.cell.lock_always();
                if inner.poisoned {
                    return Err(EngineError::ShardPoisoned { shard });
                }
                merged.merge(inner.snapshot.as_ref());
            }
            self.merged = Some(merged);
        }
        Ok(self.merged.as_ref().expect("merged view just built"))
    }

    /// Estimates the frequency of `element` **without waiting on
    /// ingestion**: the answer comes from the latest epoch-stamped snapshot
    /// set the shard workers have published, never from behind the flush
    /// barrier. Mass still buffered, queued, or inflight is not visible;
    /// the returned [`EpochStamp`] says exactly which prefix was (see
    /// [`crate::snapshot`] for the full contract, including why a stamp
    /// never mixes scheme versions).
    ///
    /// Infallible by design: even a poisoned shard leaves its last
    /// consistent publication in place, so a wait-free read always has
    /// something sound to answer from. Use [`IngestEngine::query_synced`]
    /// when the answer must cover every admitted arrival (it also surfaces
    /// poisoning as an error).
    pub fn query(&self, element: &StreamElement) -> SnapshotEstimate {
        self.reader.query(element)
    }

    /// Returns the estimated frequency of `element`, flushing and merging
    /// first so the answer reflects every admitted arrival. This is the
    /// barrier-synced read path: it waits for every shard to drain,
    /// trading latency for completeness — the wait-free
    /// counterpart is [`IngestEngine::query`]. The merged view is cached
    /// until the next ingest, so repeated queries cost one backend lookup.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardPoisoned`] if a shard is fenced off: the engine
    /// reports the corruption instead of answering from wrong counts (a
    /// merged view would silently under-count, so none is produced).
    pub fn query_synced(&mut self, element: &StreamElement) -> Result<f64, EngineError> {
        Ok(self.merged()?.query(element))
    }

    /// A cloneable, `Send + Sync` handle for issuing wait-free snapshot
    /// queries from other threads while this engine ingests. Readers stay
    /// valid (serving the last published snapshots) even after the engine
    /// is finished or dropped.
    pub fn snapshot_reader(&self) -> SnapshotReader<B> {
        self.reader.clone()
    }

    /// The [`EpochStamp`] a wait-free [`IngestEngine::query`] issued now
    /// would carry: which scheme version, per-shard epochs, and applied
    /// mass the published snapshot set currently covers.
    pub fn snapshot_stamp(&self) -> EpochStamp {
        self.reader.stamp()
    }

    /// Flushes, merges every shard into the base and returns the final
    /// estimator, consuming the engine (worker threads are joined).
    ///
    /// Every buffer is dispatched and every channel closed first, so all
    /// workers drain their final batches concurrently. The engine then
    /// waits for each shard to drain, supervising while it waits, so a
    /// worker that died — even one never reaped before — is re-forked and
    /// drains its own queue.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardPoisoned`] if a shard's state is unrecoverable.
    pub fn finish(mut self) -> Result<B, EngineError> {
        self.dispatch_all()?;
        for handle in &self.handles {
            handle.cell.close();
        }
        self.barrier()?;
        for handle in &mut self.handles {
            handle.shutdown();
            self.base.merge(handle.cell.lock_always().snapshot.as_ref());
        }
        Ok(self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opthash_sketch::CountMinSketch;
    use opthash_stream::ElementId;

    fn element(id: u64) -> StreamElement {
        StreamElement::without_features(id)
    }

    #[test]
    fn engine_matches_sequential_count_min() {
        let backend = CountMinSketch::new(128, 4, 7);
        let mut sequential = backend.clone();
        let mut engine =
            IngestEngine::new(backend, EngineConfig::with_shards(4).batch_capacity(64));

        let mut state = 1u64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let id = state % 500;
            sequential.add(ElementId(id), 1);
            engine.ingest(&element(id)).unwrap();
        }
        for id in 0..600u64 {
            assert_eq!(
                engine.query_synced(&element(id)).unwrap(),
                CountMinSketch::query(&sequential, ElementId(id)) as f64,
                "mismatch for {id}"
            );
        }
        let stats = engine.stats();
        assert_eq!(stats.ingested_elements(), 20_000);
        assert_eq!(stats.ingested_mass(), 20_000);
        assert_eq!(stats.unaccounted_mass(), 0);
        assert!(stats.flushes > 0);
        assert!(
            stats.aggregation_factor() > 1.0,
            "500 distinct ids in batches of 64x4 must aggregate"
        );
        assert!(engine.fault_log().is_empty(), "healthy run records nothing");
    }

    #[test]
    fn finish_returns_the_merged_backend() {
        let mut engine = IngestEngine::new(
            CountMinSketch::new(64, 3, 1),
            EngineConfig::with_shards(3).batch_capacity(16),
        );
        for id in 0..100u64 {
            engine.ingest_weighted(&element(id), 5).unwrap();
        }
        let merged = engine.finish().unwrap();
        for id in 0..100u64 {
            assert!(CountMinSketch::query(&merged, ElementId(id)) >= 5);
        }
        assert_eq!(merged.total_updates(), 500);
    }

    #[test]
    fn weighted_ingest_equals_repeated_ingest() {
        let config = EngineConfig::with_shards(2).batch_capacity(8);
        let mut weighted = IngestEngine::new(CountMinSketch::new(64, 3, 2), config);
        let mut repeated = IngestEngine::new(CountMinSketch::new(64, 3, 2), config);
        for id in 0..50u64 {
            weighted.ingest_weighted(&element(id), 3).unwrap();
            for _ in 0..3 {
                repeated.ingest(&element(id)).unwrap();
            }
        }
        for id in 0..60u64 {
            assert_eq!(
                weighted.query_synced(&element(id)).unwrap(),
                repeated.query_synced(&element(id)).unwrap()
            );
        }
    }

    #[test]
    fn queries_between_ingests_stay_fresh() {
        let mut engine = IngestEngine::new(
            CountMinSketch::new(64, 3, 3),
            EngineConfig::with_shards(2).batch_capacity(1024),
        );
        engine.ingest(&element(42)).unwrap();
        assert_eq!(engine.query_synced(&element(42)).unwrap(), 1.0);
        engine.ingest(&element(42)).unwrap();
        assert_eq!(engine.query_synced(&element(42)).unwrap(), 2.0);
        assert_eq!(engine.stats().flushes, 2, "each query forces a flush");
    }

    #[test]
    fn buffered_counts_pending_distinct_elements() {
        let mut engine = IngestEngine::new(
            CountMinSketch::new(64, 3, 3),
            EngineConfig::with_shards(2).batch_capacity(1024),
        );
        for id in 0..10u64 {
            engine.ingest(&element(id)).unwrap();
            engine.ingest(&element(id)).unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.buffered_updates, 10);
        assert_eq!(stats.buffered_mass, 20);
        engine.flush().unwrap();
        let stats = engine.stats();
        assert_eq!(stats.buffered_updates, 0);
        assert_eq!(stats.unaccounted_mass(), 0);
    }

    #[test]
    fn zero_weight_updates_are_rejected_and_counted() {
        let mut engine =
            IngestEngine::new(CountMinSketch::new(64, 3, 3), EngineConfig::with_shards(2));
        engine.ingest_weighted(&element(7), 2).unwrap();
        let err = engine.ingest_weighted(&element(7), 0).unwrap_err();
        assert_eq!(err, EngineError::ZeroWeight { id: ElementId(7) });
        let stats = engine.stats();
        assert_eq!(stats.zero_weight_rejections, 1);
        // Zero-weight updates carry no mass and are not admitted.
        assert_eq!((stats.elements, stats.mass), (1, 2));
        assert_eq!(engine.query_synced(&element(7)).unwrap(), 2.0);
    }

    #[test]
    fn mixed_single_and_bulk_ingest_never_overfills_a_buffer() {
        // Single and bulk arrivals share one routine, which dispatches a
        // buffer the moment it reaches its limit: interleaved, they must
        // never leave a shard holding more than `batch_capacity` distinct
        // elements (`upsert` debug-asserts the same on every insert).
        let backend = CountMinSketch::new(256, 4, 13);
        let mut sequential = backend.clone();
        let mut engine = IngestEngine::new(backend, EngineConfig::with_shards(2).batch_capacity(4));
        let mut next = 0u64;
        for round in 0..600u64 {
            let id = round * 7 % 101;
            let count = 1 + round % 3;
            engine.ingest_weighted(&element(id), count).unwrap();
            sequential.add(ElementId(id), count);
            assert!(engine.stats().buffered_updates <= 8, "round {round}");
            // A slice of 0–5 distinct IDs, continuing around the universe.
            let slice: Vec<StreamElement> =
                (0..round % 6).map(|k| element((next + k) % 101)).collect();
            next += round % 6;
            engine.ingest_batch(&slice).unwrap();
            for arrival in &slice {
                sequential.add(arrival.id, 1);
            }
            assert!(engine.stats().buffered_updates <= 8, "round {round}");
        }
        engine.flush().unwrap();
        for id in 0..120u64 {
            assert_eq!(
                engine.query_synced(&element(id)).unwrap(),
                CountMinSketch::query(&sequential, ElementId(id)) as f64,
                "mismatch for {id}"
            );
        }
        assert_eq!(engine.stats().unaccounted_mass(), 0);
    }

    #[test]
    fn snapshot_query_agrees_with_synced_query_after_flush() {
        let mut engine = IngestEngine::new(
            CountMinSketch::new(128, 4, 7),
            EngineConfig::with_shards(3).batch_capacity(32),
        );
        for id in 0..2_000u64 {
            engine.ingest(&element(id % 150)).unwrap();
        }
        engine.flush().unwrap();
        for id in 0..200u64 {
            let snapshot = engine.query(&element(id));
            let synced = engine.query_synced(&element(id)).unwrap();
            assert_eq!(snapshot.estimate, synced, "post-flush agreement for {id}");
        }
        let stamp = engine.snapshot_stamp();
        assert_eq!(stamp.scheme_version, 0);
        assert_eq!(stamp.epoch_per_shard.len(), 3);
        assert_eq!(
            stamp.mass_accounted, 2_000,
            "a flushed stamp covers all mass"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = IngestEngine::new(CountMinSketch::new(8, 1, 1), EngineConfig::with_shards(0));
    }
}
