//! The sharded, batched, fault-isolated [`IngestEngine`].

use crate::backend::SketchBackend;
use crate::error::EngineError;
use crate::fault::{self, FaultEvent, FaultInjector, FaultLog, SharedFaultLog};
use crate::queue::{BatchData, QueuedBatch, ShardChannel, ShardCounters};
use crate::snapshot::{
    BaseSlot, EpochStamp, PublishedSlot, SnapshotEstimate, SnapshotHub, SnapshotReader,
};
use crate::worker::{apply_batch, spawn_worker, ShardHandle, WorkerConfig};
use opthash::MassLedger;
use opthash_stream::{Stream, StreamElement};
use std::panic::{catch_unwind, AssertUnwindSafe};
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

/// What the engine does when an arrival routes to a shard whose worker
/// queue is full.
///
/// Every policy upholds the same conservation invariant, checked by
/// [`EngineStats::conserved`]: offered mass = accepted + rejected +
/// degraded mass. Nothing is ever dropped silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the ingesting thread until the shard drains (lossless,
    /// unbounded latency). The default.
    #[default]
    Block,
    /// Reject the arrival with [`EngineError::Overloaded`] (bounded
    /// latency; the caller decides how to shed load). Rejections are
    /// counted in the `rejected` bucket of the engine's ledgers.
    Reject,
    /// Keep absorbing arrivals into the shard's pre-aggregating batch
    /// buffer past its normal batch size (growing it as needed) —
    /// duplicate-heavy traffic collapses in place, so mass is never lost
    /// and latency stays bounded at the cost of buffer memory and batch
    /// staleness. Arrivals admitted this way are counted in the `degraded`
    /// bucket.
    DegradeAggregate,
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
    /// Overload behaviour when a shard's worker queue is full.
    pub backpressure: BackpressurePolicy,
    /// Bounded depth of each shard's worker queue, in batches.
    pub queue_capacity: usize,
    /// Application attempts before a panicking batch is quarantined as a
    /// poison pill instead of being retried forever.
    pub max_batch_attempts: u32,
    /// Committed batches between worker checkpoints. Smaller values bound
    /// recovery replay tighter; larger values amortize the O(state)
    /// snapshot clone over more batches.
    pub checkpoint_interval: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 4,
            batch_capacity: 8_192,
            backpressure: BackpressurePolicy::Block,
            queue_capacity: 8,
            max_batch_attempts: 3,
            checkpoint_interval: 8,
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

    /// Sets the backpressure policy.
    pub fn backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.backpressure = policy;
        self
    }

    /// Sets the per-shard worker queue depth, in batches.
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Sets the poison-pill quarantine threshold.
    pub fn max_batch_attempts(mut self, attempts: u32) -> Self {
        self.max_batch_attempts = attempts.max(1);
        self
    }

    /// Sets the worker checkpoint interval, in committed batches.
    pub fn checkpoint_interval(mut self, batches: u32) -> Self {
        self.checkpoint_interval = batches.max(1);
        self
    }
}

/// Counters describing what an [`IngestEngine`] has done so far — a
/// consistent snapshot assembled by [`IngestEngine::stats`].
///
/// The two [`MassLedger`]s carry the engine's conservation invariant: under
/// every [`BackpressurePolicy`], offered = accepted + rejected + degraded,
/// for arrival counts (`elements`) and weighted count mass (`mass`) alike.
/// [`EngineStats::unaccounted_mass`] additionally audits where admitted
/// mass currently sits (applied, buffered, queued, or quarantined); after a
/// [`IngestEngine::flush`] it must be exactly zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Conservation ledger over arrivals (each ingest call is one unit).
    pub elements: MassLedger,
    /// Conservation ledger over weighted count mass.
    pub mass: MassLedger,
    /// Weight-0 updates rejected at the API boundary (carry no mass, so
    /// they are excluded from the ledgers).
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
    /// Pre-aggregated updates set aside in poison-pill quarantine.
    pub quarantined_updates: u64,
    /// Count mass set aside in poison-pill quarantine.
    pub quarantined_mass: u64,
    /// Batch application attempts that panicked (caught and retried or
    /// quarantined).
    pub batch_failures: u64,
    /// Shard workers re-forked by the supervisor after a death.
    pub worker_restarts: u64,
}

impl EngineStats {
    /// Arrivals admitted into the engine (accepted + degraded).
    pub fn ingested_elements(&self) -> u64 {
        self.elements.admitted()
    }

    /// Count mass admitted into the engine (accepted + degraded).
    pub fn ingested_mass(&self) -> u64 {
        self.mass.admitted()
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

    /// The intake conservation invariant: every offered arrival and every
    /// unit of offered mass is accounted as accepted, rejected, or
    /// degraded.
    pub fn conserved(&self) -> bool {
        self.elements.conserved() && self.mass.conserved()
    }

    /// Admitted mass not locatable in the engine (not applied, buffered,
    /// queued, or quarantined). Zero at all times for a healthy engine;
    /// after [`IngestEngine::flush`] anything other than zero means mass
    /// was lost (negative: double-counted).
    pub fn unaccounted_mass(&self) -> i128 {
        self.mass.admitted() as i128
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
/// The table is sized for a maximum load factor of 3/4, so an upsert probes
/// O(1) expected slots. Under [`BackpressurePolicy::DegradeAggregate`] the
/// buffer may be asked to hold more than its configured batch capacity; it
/// then grows (doubling and rehashing) to keep the load factor bounded, so
/// aggregation continues instead of mass being dropped.
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

    /// `true` once the buffer holds its configured batch capacity of
    /// distinct elements and should be dispatched before growing further.
    #[inline]
    fn is_at_limit(&self) -> bool {
        self.len >= self.limit
    }

    /// Adds `count > 0` arrivals of `element`. The element is cloned only
    /// when a *featured* element occupies a slot for the first time —
    /// duplicate arrivals (the common case on skewed streams) touch nothing
    /// but the 16-byte entry.
    ///
    /// Returns `true` when this upsert brought the buffer to its batch
    /// limit — computed on the insert branch only, so the duplicate-bump
    /// hot path pays for no limit check at all. (A buffer already past its
    /// limit — degraded mode — reports `false` for duplicate bumps; callers
    /// that care about standing fullness use [`BatchBuffer::is_at_limit`].)
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
            // Growth is only reachable past the batch limit (degraded
            // mode): the normal dispatch path drains the buffer at `limit`,
            // well under the 3/4 load factor this check maintains. Checking
            // on insert only keeps it off the duplicate-bump hot path, and
            // growing *after* the insert is sound — the rehash carries the
            // new entry along.
            if self.len * 4 >= self.entries.len() * 3 {
                self.grow();
            }
            return self.len >= self.limit;
        }
    }

    /// Doubles the slot table and rehashes every pending entry.
    fn grow(&mut self) {
        let new_slots = self.entries.len() * 2;
        let old_entries = std::mem::replace(&mut self.entries, vec![(0, 0); new_slots]);
        let had_featured = !self.featured.is_empty();
        let mut old_featured = std::mem::replace(
            &mut self.featured,
            if had_featured {
                vec![None; new_slots]
            } else {
                Vec::new()
            },
        );
        let mask = new_slots - 1;
        for (old_idx, &(key, count)) in old_entries.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let mut idx = mix64(key) as usize & mask;
            while self.entries[idx].1 != 0 {
                idx = (idx + 1) & mask;
            }
            self.entries[idx] = (key, count);
            if had_featured {
                self.featured[idx] = old_featured[old_idx].take();
            }
        }
    }

    /// Requests the cache line of `hash`'s home slot ahead of its upsert.
    /// Issued from [`IngestEngine::ingest_batch`]'s lookahead so that cold
    /// slots are already in cache when the probe reaches them.
    #[inline]
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

enum DispatchOutcome {
    Dispatched,
    QueueFull,
}

/// A sharded, batched, fault-isolated ingestion front-end for any
/// [`SketchBackend`].
///
/// Arrivals are hash-partitioned by element ID across `N` shards. Each shard
/// buffers its arrivals in a pre-aggregating batch (duplicate IDs collapse
/// into one weighted update — a large win on the skewed streams the paper
/// studies). Full batches are fed through a bounded queue to the shard's
/// **persistent worker thread**, so application overlaps ingestion and all
/// cores stay busy between flushes; overload behaviour is governed by the
/// configured [`BackpressurePolicy`]. An idle worker parks on its queue and
/// costs no CPU beyond a timed backstop wake-up.
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
///   waits for every worker to checkpoint, and merges the shard snapshots
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
/// dead workers are re-forked from their shard's last checkpoint with the
/// surviving queue replayed, and every such event is recorded in the
/// [`FaultLog`]. The fallible operations return
/// [`EngineError`] instead of panicking, and [`EngineStats`] carries
/// conservation ledgers proving no arrival is ever silently dropped.
///
/// # Exactness
///
/// Because the partition is *by ID*, every distinct element lives in
/// exactly one shard, which makes sharding exact for all linear backends
/// **and** for [`opthash::AdaptiveOptHash`]. Exactness assumes each ID's
/// features are identical across appearances, as [`StreamElement`]
/// specifies: within a batch window duplicate arrivals are applied through
/// the ID's first-seen element (see [`SketchBackend`] for the full
/// contract).
///
/// # Memory
///
/// The engine keeps `2 × shards + 3` copies of the backend's state:
///
/// * the engine's base backend;
/// * the snapshot hub's copy of that base, which readers merge onto;
/// * per shard, the last checkpoint snapshot (the published query snapshot
///   shares its allocation) and the worker's scratch copy;
/// * one merged view: the barrier path's cached merge, or before the first
///   synced query the empty fork every shard starts from.
///
/// On top of that come each shard's batch buffer and up to
/// `queue_capacity + checkpoint_interval` batches per shard in flight,
/// trading memory for ingest throughput and crash recoverability. Each
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
    config: EngineConfig,
    elements: MassLedger,
    mass: MassLedger,
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
                    WorkerConfig {
                        shard,
                        max_batch_attempts: config.max_batch_attempts,
                        checkpoint_interval: config.checkpoint_interval,
                    },
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
            config,
            elements: MassLedger::default(),
            mass: MassLedger::default(),
            zero_weight_rejections: 0,
            flushes: 0,
            scheme_version: 0,
            dirty: false,
            faults,
            fault_log,
        }
    }

    /// Wraps `backend` with the default configuration (4 worker shards,
    /// 8 Ki distinct elements per batch, blocking backpressure).
    pub fn with_defaults(backend: B) -> Self {
        Self::new(backend, EngineConfig::default())
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
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
        let mut queued_mass = 0u64;
        for handle in &self.handles {
            let inner = handle.cell.lock_always();
            counters.absorb(&inner.counters);
            // Read under the control lock: the worker only debits queued
            // mass while holding it, and the engine (the only thread
            // crediting) is the caller — so the ledger identity holds at
            // this instant.
            queued_mass += handle.cell.queued_mass();
        }
        let mut stats = EngineStats {
            elements: self.elements,
            mass: self.mass,
            zero_weight_rejections: self.zero_weight_rejections,
            flushes: self.flushes,
            applied_updates: counters.applied_updates,
            applied_mass: counters.applied_mass,
            queued_mass,
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

    /// Number of distinct elements currently buffered across all shards.
    pub fn buffered(&self) -> usize {
        self.buffers.iter().map(|b| b.len).sum()
    }

    /// The pre-aggregated updates of every quarantined poison-pill batch,
    /// in shard order: the mass the engine refused to lose silently. A
    /// caller can inspect or re-apply them (e.g. to a fresh engine after
    /// fixing the underlying fault).
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
    /// * [`EngineError::Overloaded`] — the target shard's queue is full
    ///   under [`BackpressurePolicy::Reject`]; the arrival was not admitted
    ///   and is counted in the rejected ledger buckets.
    /// * [`EngineError::ShardPoisoned`] — the target shard is fenced off.
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
        self.admit(element, count)
    }

    /// Routes, applies backpressure, and buffers one non-zero arrival.
    #[inline]
    fn admit(&mut self, element: &StreamElement, count: u64) -> Result<(), EngineError> {
        let hash = mix64(element.id.raw());
        // Multiply-shift on the high bits picks the shard; the low bits
        // index the buffer's slot table, so the two stay decorrelated.
        let shard = (((hash >> 32) * self.buffers.len() as u64) >> 32) as usize;
        let mut degraded = false;
        if self.buffers[shard].is_at_limit() {
            match self.dispatch(shard, false)? {
                DispatchOutcome::Dispatched => {}
                DispatchOutcome::QueueFull => match self.config.backpressure {
                    BackpressurePolicy::Reject => {
                        self.elements.reject(1);
                        self.mass.reject(count);
                        return Err(EngineError::Overloaded {
                            shard,
                            queue_capacity: self.config.queue_capacity,
                        });
                    }
                    BackpressurePolicy::DegradeAggregate => degraded = true,
                    // `dispatch` blocks until space under Block.
                    BackpressurePolicy::Block => unreachable!("Block never reports a full queue"),
                },
            }
        }
        if degraded {
            self.elements.degrade(1);
            self.mass.degrade(count);
        } else {
            self.elements.accept(1);
            self.mass.accept(count);
        }
        self.buffers[shard].upsert(hash, element, count);
        self.dirty = true;
        Ok(())
    }

    /// Accepts a slice of arrivals — the engine's preferred bulk path.
    ///
    /// Beyond amortizing per-call bookkeeping, each arrival's batch slot is
    /// prefetched a few elements ahead, hiding the cache-miss latency of
    /// cold (tail) elements behind the work of the hot head.
    ///
    /// Under [`BackpressurePolicy::Reject`] the bulk path does **not** stop
    /// at the first overloaded arrival: rejected arrivals are counted in
    /// the ledgers (preserving the conservation invariant) and the rest of
    /// the slice is processed. Other errors abort and propagate.
    pub fn ingest_batch(&mut self, elements: &[StreamElement]) -> Result<(), EngineError> {
        /// How many arrivals ahead to prefetch: far enough to cover an
        /// L2/L3 miss, near enough to stay in the prefetch queues. A power
        /// of two, so the hash-ring index below is a mask.
        const LOOKAHEAD: usize = 16;
        self.faults.hit_result_at("engine::ingest", None)?;
        if !matches!(self.config.backpressure, BackpressurePolicy::Block) {
            // Reject can shed and DegradeAggregate can reroute arrivals, so
            // those policies need the per-arrival ledger accounting of
            // `admit`; surfaced rejections are absorbed here (they are on
            // the ledger) to keep the bulk path total.
            for element in elements {
                match self.admit(element, 1) {
                    Ok(()) | Err(EngineError::Overloaded { .. }) => {}
                    Err(err) => return Err(err),
                }
            }
            return Ok(());
        }
        // Block admits every arrival unconditionally, so the ledger can be
        // settled once for the whole slice instead of per element — this
        // loop is the engine's hottest path. Splitting the slice at
        // `len - LOOKAHEAD` makes the prefetch unconditional in the main
        // loop (zip bounds it) and leaves a short prefetch-free tail. A
        // LOOKAHEAD-deep hash ring carries each lookahead hash forward to
        // its own arrival, so every ID is mixed exactly once: the ring slot
        // read for arrival `i` is the slot written at arrival `i - LOOKAHEAD`
        // (same slot, period LOOKAHEAD).
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
            let nshards = self.buffers.len() as u64;
            let shard = (((ahead >> 32) * nshards) >> 32) as usize;
            self.buffers[shard].prefetch(ahead);
            if let Err(err) = self.block_ingest_one(hash, element) {
                result = Err(err);
                break;
            }
        }
        if result.is_ok() {
            for element in tail {
                let hash = ring[position & (LOOKAHEAD - 1)];
                position += 1;
                if let Err(err) = self.block_ingest_one(hash, element) {
                    result = Err(err);
                    break;
                }
            }
        }
        // Every arrival up to and including a failing one was upserted into
        // its shard buffer before dispatch could error, so the processed
        // prefix must be admitted to the ledgers even when propagating —
        // otherwise unaccounted_mass() goes negative and, were `dirty`
        // still false, a later query would skip flushing those arrivals.
        if position > 0 {
            self.elements.accept(position as u64);
            self.mass.accept(position as u64);
            self.dirty = true;
        }
        result
    }

    /// One arrival on the Block-policy bulk path (`hash` is the arrival's
    /// precomputed `mix64`): one bounds-checked shard lookup, one probe, and
    /// the batch-limit check only on the rare insert branch inside `upsert`.
    /// The arrival that fills a buffer dispatches it. Ledger accounting is
    /// settled by the caller for the whole slice.
    #[inline(always)]
    fn block_ingest_one(&mut self, hash: u64, element: &StreamElement) -> Result<(), EngineError> {
        let shard = (((hash >> 32) * self.buffers.len() as u64) >> 32) as usize;
        if self.buffers[shard].upsert(hash, element, 1) {
            self.dispatch(shard, false)?;
        }
        Ok(())
    }

    /// Accepts a whole stream in arrival order.
    pub fn ingest_stream(&mut self, stream: &Stream) -> Result<(), EngineError> {
        self.ingest_batch(stream.as_slice())
    }

    /// Drains `shard`'s buffer and hands the batch to its worker.
    /// `force_block` overrides the configured policy with blocking
    /// semantics — used by [`IngestEngine::flush`], which must never shed
    /// load.
    fn dispatch(
        &mut self,
        shard: usize,
        force_block: bool,
    ) -> Result<DispatchOutcome, EngineError> {
        self.faults.hit_result_at("engine::dispatch", Some(shard))?;
        let cell = Arc::clone(&self.handles[shard].cell);
        let policy = if force_block {
            BackpressurePolicy::Block
        } else {
            self.config.backpressure
        };
        match policy {
            BackpressurePolicy::Block => {
                let data = Arc::new(self.buffers[shard].drain_to_batch());
                loop {
                    if cell.try_push(Arc::clone(&data)) {
                        return Ok(DispatchOutcome::Dispatched);
                    }
                    self.supervise();
                    let (_, poisoned) = cell.wait_space(SUPERVISE_TICK);
                    if poisoned {
                        return Err(EngineError::ShardPoisoned { shard });
                    }
                }
            }
            BackpressurePolicy::Reject | BackpressurePolicy::DegradeAggregate => {
                if cell.is_full() {
                    // A full queue can mean a dead worker: give the
                    // supervisor a chance to re-fork it before concluding
                    // this is genuine overload.
                    self.supervise();
                    if cell.is_full() {
                        return Ok(DispatchOutcome::QueueFull);
                    }
                }
                let (_, poisoned) = cell.sync_state(0);
                if poisoned {
                    return Err(EngineError::ShardPoisoned { shard });
                }
                let data = Arc::new(self.buffers[shard].drain_to_batch());
                let pushed = cell.try_push(data);
                debug_assert!(
                    pushed,
                    "single producer: space cannot vanish after the check"
                );
                Ok(DispatchOutcome::Dispatched)
            }
        }
    }

    /// Detects dead shard workers and re-forks replacements.
    ///
    /// A replacement rebuilds the shard's state from its last checkpoint
    /// plus the recovery journal, requeues any batch that was inflight when
    /// the worker died, and replays the surviving queue — so a worker death
    /// loses nothing. The engine supervises automatically whenever it waits
    /// on a shard (dispatch under backpressure, flush barriers); calling
    /// this directly is only needed to reap a death while the engine is
    /// otherwise idle.
    pub fn supervise(&mut self) {
        for (shard, handle) in self.handles.iter_mut().enumerate() {
            let died = handle.thread.as_ref().is_some_and(JoinHandle::is_finished)
                && !handle.cell.is_closed();
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
            // quarantine), since the replacement's rebuilt state excludes
            // it.
            match handle.cell.fail_inflight(self.config.max_batch_attempts) {
                crate::queue::FailDisposition::Requeued { attempt, mass } => fault::record(
                    &self.fault_log,
                    FaultEvent::BatchPanicked {
                        shard,
                        attempt,
                        mass,
                    },
                ),
                crate::queue::FailDisposition::Quarantined { mass, updates } => fault::record(
                    &self.fault_log,
                    FaultEvent::BatchQuarantined {
                        shard,
                        mass,
                        updates,
                    },
                ),
                crate::queue::FailDisposition::Idle => {}
            }
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
                WorkerConfig {
                    shard,
                    max_batch_attempts: self.config.max_batch_attempts,
                    checkpoint_interval: self.config.checkpoint_interval,
                },
                handle.generation,
            ));
        }
    }

    /// Dispatches every buffered batch and synchronizes every shard to a
    /// consistent checkpoint covering all admitted arrivals.
    ///
    /// Flush never sheds load: pending batches are enqueued with blocking
    /// semantics regardless of the configured backpressure policy, and the
    /// barrier waits for every worker to drain its queue and publish a
    /// checkpoint (supervising — and if necessary restarting — workers
    /// while it waits). Called automatically before a query/merge.
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
        // every healthy shard still reaches a consistent checkpoint.
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

    /// Dispatches every non-empty shard buffer with blocking semantics
    /// (flush, swap and finish never shed load). Keeps going past a
    /// poisoned shard and returns the first error.
    fn dispatch_all(&mut self) -> Result<(), EngineError> {
        let mut first_err = None;
        for shard in 0..self.buffers.len() {
            if !self.buffers[shard].is_empty() {
                if let Err(err) = self.dispatch(shard, true) {
                    first_err.get_or_insert(err);
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Flush barrier: waits for every shard to drain and checkpoint,
    /// supervising while it waits.
    fn barrier(&mut self) -> Result<(), EngineError> {
        let requests: Vec<(usize, Arc<ShardChannel<B>>, u64)> = self
            .handles
            .iter()
            .enumerate()
            .map(|(shard, handle)| {
                let cell = Arc::clone(&handle.cell);
                let epoch = cell.request_sync();
                (shard, cell, epoch)
            })
            .collect();
        let mut first_err = None;
        for (shard, cell, epoch) in requests {
            loop {
                let (done, poisoned) = cell.wait_sync(epoch, SUPERVISE_TICK);
                if poisoned {
                    // Reap the dead worker and log the poisoning, then move
                    // on: the remaining shards still get synchronized.
                    self.supervise();
                    first_err.get_or_insert(EngineError::ShardPoisoned { shard });
                    break;
                }
                if done {
                    break;
                }
                self.supervise();
            }
        }
        match first_err {
            Some(err) => Err(err),
            None => Ok(()),
        }
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
    /// dispatched with blocking semantics (a swap never sheds load), then
    /// each shard is handed a swap request that its worker picks up as the
    /// next queue event after draining its batches. The worker retires its
    /// scratch delta — migrated out through the same
    /// [`SketchBackend::fork`]/[`SketchBackend::merge`] machinery checkpoints
    /// use — and re-forks from the new base; the retired per-shard deltas
    /// are merged into the old base, which is returned. A worker that dies
    /// mid-swap is re-forked by the supervisor and redoes the still-pending
    /// request, so the swap completes exactly once per shard.
    ///
    /// The conservation ledgers are untouched: admitted mass was either
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
        let cells: Vec<Arc<ShardChannel<B>>> = self
            .handles
            .iter()
            .map(|handle| Arc::clone(&handle.cell))
            .collect();
        let version = self.scheme_version + 1;
        for cell in &cells {
            cell.request_swap(version, Arc::clone(&shared));
        }
        for (shard, cell) in cells.iter().enumerate() {
            loop {
                let (done, poisoned) = cell.wait_swap(SUPERVISE_TICK);
                if poisoned {
                    self.supervise();
                    first_err.get_or_insert(EngineError::ShardPoisoned { shard });
                    break;
                }
                if done {
                    break;
                }
                self.supervise();
            }
        }
        let mut retired = std::mem::replace(&mut self.base, fresh);
        for cell in &cells {
            if let Some(delta) = cell.take_retired() {
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

    /// The wrapped backend's report name.
    pub fn backend_name(&self) -> &'static str {
        self.base.backend_name()
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
    /// barrier. Mass still buffered, queued, or applied-but-not-yet-
    /// checkpointed is not visible; the returned [`EpochStamp`] says
    /// exactly which prefix was (see [`crate::snapshot`] for the full
    /// contract, including why a stamp never mixes scheme versions).
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
    /// barrier-synced read path: it waits for every shard worker to drain
    /// and checkpoint, trading latency for completeness — the wait-free
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
    /// This skips the flush barrier entirely: closing a channel makes its
    /// worker drain the remaining queue and publish its scratch state by
    /// move (no checkpoint clone), so the join itself is the
    /// synchronization.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShardPoisoned`] if a shard's state is unrecoverable.
    pub fn finish(mut self) -> Result<B, EngineError> {
        // Dispatch whatever is still buffered, then close and join.
        self.dispatch_all()?;
        // Close every channel before joining any thread, so all workers
        // drain their final batches concurrently instead of serializing
        // behind shard 0's join.
        for handle in &self.handles {
            handle.cell.close();
        }
        for handle in &mut self.handles {
            handle.shutdown();
        }
        for (shard, handle) in self.handles.iter().enumerate() {
            let mut inner = handle.cell.lock_always();
            if inner.poisoned {
                return Err(EngineError::ShardPoisoned { shard });
            }
            // A worker that died (rather than exiting cleanly) leaves
            // unpublished work behind. Catch up here: replay the journal
            // onto the snapshot, then apply whatever the worker never got
            // to — each leftover batch on a trial clone, so one that still
            // panics is quarantined without corrupting the rebuilt state.
            // Draining the ring is sound: the worker thread was joined
            // above, so the consumer role has passed to this thread.
            if !inner.journal.is_empty()
                || inner.inflight.is_some()
                || !inner.retry.is_empty()
                || handle.cell.has_undrained()
            {
                let mut state = (*inner.snapshot).clone();
                for batch in inner.journal.drain(..) {
                    apply_batch(&mut state, &batch);
                }
                let mut leftovers: Vec<QueuedBatch> = inner
                    .inflight
                    .take()
                    .into_iter()
                    .chain(inner.retry.drain(..))
                    .collect();
                while let Some(data) = handle.cell.pop_after_join() {
                    leftovers.push(QueuedBatch { data, attempts: 0 });
                }
                for batch in leftovers {
                    let mut trial = state.clone();
                    let applied = catch_unwind(AssertUnwindSafe(|| {
                        apply_batch(&mut trial, &batch.data);
                    }));
                    handle.cell.debit_queued_mass(batch.data.mass);
                    match applied {
                        Ok(()) => {
                            state = trial;
                            inner.counters.applied_updates += batch.data.updates.len() as u64;
                            inner.counters.applied_mass += batch.data.mass;
                        }
                        Err(_) => {
                            inner.counters.batch_failures += 1;
                            inner.counters.quarantined_updates += batch.data.updates.len() as u64;
                            inner.counters.quarantined_mass += batch.data.mass;
                            fault::record(
                                &self.fault_log,
                                FaultEvent::BatchQuarantined {
                                    shard,
                                    mass: batch.data.mass,
                                    updates: batch.data.updates.len(),
                                },
                            );
                            inner.quarantined.push(batch.data);
                        }
                    }
                }
                inner.snapshot = Arc::new(state);
            }
            self.base.merge(inner.snapshot.as_ref());
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
        assert!(stats.conserved());
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
        assert_eq!(engine.buffered(), 10);
        let stats = engine.stats();
        assert_eq!(stats.buffered_updates, 10);
        assert_eq!(stats.buffered_mass, 20);
        engine.flush().unwrap();
        assert_eq!(engine.buffered(), 0);
        assert_eq!(engine.stats().unaccounted_mass(), 0);
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
        // Zero-weight updates carry no mass: the ledgers never saw them.
        assert_eq!(stats.mass.offered, 2);
        assert!(stats.conserved());
        assert_eq!(engine.query_synced(&element(7)).unwrap(), 2.0);
    }

    #[test]
    fn degrade_policy_grows_the_buffer_without_losing_mass() {
        // One shard, tiny batches, a depth-1 queue: all-distinct arrivals
        // fill batches as fast as possible, so some dispatches find the
        // queue full and degrade into the growing buffer.
        let backend = CountMinSketch::new(256, 4, 5);
        let mut sequential = backend.clone();
        let mut engine = IngestEngine::new(
            backend,
            EngineConfig {
                shards: 1,
                batch_capacity: 4,
                queue_capacity: 1,
                backpressure: BackpressurePolicy::DegradeAggregate,
                ..EngineConfig::default()
            },
        );
        for id in 0..2_000u64 {
            sequential.add(ElementId(id), 1);
            engine.ingest(&element(id)).unwrap();
        }
        let stats = engine.stats();
        assert!(stats.conserved());
        assert_eq!(stats.ingested_elements(), 2_000);
        assert_eq!(stats.unaccounted_mass(), 0);
        for id in (0..2_000u64).step_by(97) {
            assert_eq!(
                engine.query_synced(&element(id)).unwrap(),
                CountMinSketch::query(&sequential, ElementId(id)) as f64
            );
        }
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
