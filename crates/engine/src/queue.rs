//! Bounded per-shard work channels: a lock-free SPSC batch ring plus a
//! small control mutex for the fault-tolerance protocol.
//!
//! Each shard of an [`crate::IngestEngine`] owns one
//! [`ShardChannel`]. The hot path — the engine (single producer) handing
//! pre-aggregated batches to the worker (single consumer) — runs through
//! [`SpscRing`]: a cache-line-padded single-producer/single-consumer ring
//! with atomic head/tail indices and power-of-two capacity. Pushing and
//! popping a batch takes no lock; both sides use spin-then-park backoff
//! (a bounded spin on the ring's atomics, then a timed condvar park with a
//! flag-and-knock wake protocol) so saturation never degenerates into a
//! busy loop and idle never misses a wake-up for more than a backstop
//! tick.
//!
//! Everything the fault-tolerance protocol relies on stays behind one
//! small *control* mutex, held only for pointer-sized bookkeeping:
//!
//! * `retry` — batches being re-attempted after a panic (a requeued batch
//!   bypasses the ring so the worker retries it before new work);
//! * `inflight` — the batch the worker is currently applying (popping from
//!   the ring and marking inflight happens under the control lock, so a
//!   batch can never fall between the ring and the worker when a panic
//!   strikes);
//! * `snapshot` — the shard's committed accumulated delta, an `Arc`
//!   replaced wholesale by every commit (never mutated in place) and
//!   shared with the shard's [`crate::snapshot::PublishedSlot`], so
//!   publishing a wait-free query snapshot costs one `Arc` clone. The
//!   worker applies each batch to a copy of it, and a replacement worker
//!   simply starts from it;
//! * `quarantined` — poison-pill batches set aside after exhausting their
//!   application attempts, and batches a poisoned shard could not take,
//!   retained so their mass stays accounted.
//!
//! A shard is *drained* when its ring, retry deque and inflight slot are
//! all empty. Only the engine pushes, so the engine sees a drained shard
//! stay drained, and its committed snapshot then covers every batch it
//! dispatched.
//!
//! Dispatched-but-unapplied mass is tracked in a plain atomic
//! (`queued_mass`) rather than a locked counter: the producer credits it
//! before the ring push, and the worker debits it under the control lock
//! at commit/quarantine — so the engine-wide conservation audit
//! ([`crate::EngineStats::unaccounted_mass`]) still balances at every
//! observable instant. Mutex poisoning is handled everywhere via
//! [`ShardChannel::lock_always`]: a poisoned lock marks the shard poisoned
//! rather than cascading panics.

use crate::backend::SketchBackend;
use crate::fault::{self, FaultEvent, SharedFaultLog};
use crate::snapshot::PublishedSlot;
use opthash_stream::StreamElement;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Bounded spin iterations before either side falls back to parking.
const SPIN_LIMIT: usize = 64;

/// Backstop for the consumer's park: even a (theoretically impossible)
/// missed knock costs at most this much latency. Kept lazy on purpose —
/// every ring push knocks a parked consumer and every control-plane signal
/// (close / swap / retry) notifies under the control lock, so this
/// timer only ever fires on an *idle* shard, where frequent spurious wakes
/// would steal cycles from the ingest thread (acute on few-core hosts).
const PARK_BACKSTOP: Duration = Duration::from_millis(25);

/// Application attempts before a panicking batch is quarantined as a
/// poison pill instead of being retried forever.
const MAX_BATCH_ATTEMPTS: u32 = 3;

/// Pads a value to its own cache line so the producer's tail index and the
/// consumer's head index never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct CachePadded<T>(T);

/// A lock-free single-producer/single-consumer ring buffer.
///
/// The classic Lamport queue: the producer owns `tail`, the consumer owns
/// `head`, each index grows monotonically (wrapping arithmetic) and maps
/// to a slot via a power-of-two mask. A slot in `[head, tail)` is
/// initialized and owned by the consumer; everything else is vacant and
/// owned by the producer.
///
/// # Safety contract
///
/// At most one thread may call [`SpscRing::push`] and at most one thread
/// may call [`SpscRing::pop`] at any time. The engine enforces this
/// structurally: the engine thread is the only producer, the shard worker
/// the only consumer, and the consumer role is only ever handed off
/// through a `thread::join` (supervision joins the dead worker before
/// spawning its replacement), which gives the required happens-before
/// edge.
pub(crate) struct SpscRing<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Consumer cursor: the next slot to pop.
    head: CachePadded<AtomicUsize>,
    /// Producer cursor: the next slot to fill.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the ring hands `T` values across threads (push on one, pop on
// another), which requires `T: Send`; the `&self` methods are safe to call
// concurrently only under the single-producer/single-consumer contract
// documented above, which the atomic head/tail protocol then makes sound.
unsafe impl<T: Send> Send for SpscRing<T> {}
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> std::fmt::Debug for SpscRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpscRing")
            .field("capacity", &self.slots.len())
            .field("len", &self.len())
            .finish()
    }
}

impl<T> SpscRing<T> {
    /// A ring with room for at least `capacity` values (rounded up to a
    /// power of two so index-to-slot mapping is a mask, not a division).
    fn with_capacity(capacity: usize) -> Self {
        let physical = capacity.max(1).next_power_of_two();
        SpscRing {
            slots: (0..physical)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            mask: physical - 1,
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Occupied slots. Exact for the owning side; a lower/upper bound that
    /// is never torn for the other.
    fn len(&self) -> usize {
        let tail = self.tail.0.load(Ordering::Acquire);
        let head = self.head.0.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a value. **Single producer only** (see the type docs).
    /// Returns the value back if the ring is physically full.
    fn push(&self, value: T) -> Result<(), T> {
        let tail = self.tail.0.load(Ordering::Relaxed); // producer-owned
        let head = self.head.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > self.mask {
            return Err(value);
        }
        // SAFETY: the slot at `tail` is vacant (index protocol above) and
        // no other thread writes slots (single producer). The Release
        // store below publishes the initialized slot to the consumer.
        unsafe { (*self.slots[tail & self.mask].get()).write(value) };
        self.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Removes the oldest value. **Single consumer only** (see the type
    /// docs).
    fn pop(&self) -> Option<T> {
        let head = self.head.0.load(Ordering::Relaxed); // consumer-owned
        let tail = self.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: `head != tail` under the Acquire load means the slot at
        // `head` was initialized by a push whose Release store we observed,
        // and no other thread reads slots (single consumer). The Release
        // store below returns the now-vacant slot to the producer.
        let value = unsafe { (*self.slots[head & self.mask].get()).assume_init_read() };
        self.head.0.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // `&mut self` is exclusive, so draining via pop is race-free and
        // drops every still-queued value exactly once.
        while self.pop().is_some() {}
    }
}

/// A drained batch: the pre-aggregated `(element, count)` updates of one
/// shard buffer. Immutable once built; shared by `Arc` between the ring,
/// the inflight slot and the retry deque, so a requeue never copies the
/// update data.
#[derive(Debug)]
pub(crate) struct BatchData {
    /// Pre-aggregated weighted updates, in first-seen order.
    pub updates: Vec<(StreamElement, u64)>,
    /// Total count mass of the batch (sum of the update weights).
    pub mass: u64,
}

/// A batch in the retry or inflight slot, with its application-attempt
/// count (for poison-pill quarantine). Batches in the ring are always at
/// attempt 0, so the ring carries bare `Arc<BatchData>`.
#[derive(Debug, Clone)]
pub(crate) struct QueuedBatch {
    pub data: Arc<BatchData>,
    /// Completed application attempts (0 for a never-tried batch).
    pub attempts: u32,
}

/// Per-shard robustness counters, maintained under the control lock.
/// (Dispatched-but-unapplied mass lives in [`ShardChannel::queued_mass`],
/// an atomic, because the lock-free producer must credit it without taking
/// the lock.)
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardCounters {
    pub applied_updates: u64,
    pub applied_mass: u64,
    pub quarantined_updates: u64,
    pub quarantined_mass: u64,
    pub batch_failures: u64,
    pub worker_restarts: u64,
}

impl ShardCounters {
    /// Accumulates another shard's counters (for engine-wide stats).
    pub fn absorb(&mut self, other: &ShardCounters) {
        self.applied_updates += other.applied_updates;
        self.applied_mass += other.applied_mass;
        self.quarantined_updates += other.quarantined_updates;
        self.quarantined_mass += other.quarantined_mass;
        self.batch_failures += other.batch_failures;
        self.worker_restarts += other.worker_restarts;
    }
}

/// Everything guarded by the control mutex.
#[derive(Debug)]
pub(crate) struct ControlInner<B> {
    /// Batches being re-attempted after a panic; drained before the ring so
    /// a requeued batch keeps its old front-of-queue priority.
    pub retry: VecDeque<QueuedBatch>,
    pub inflight: Option<QueuedBatch>,
    /// The shard's committed accumulated delta. An `Arc` so the same
    /// allocation is the worker's starting point *and* the published query
    /// snapshot.
    pub snapshot: Arc<B>,
    /// Applied count mass `snapshot` accounts for (under the current scheme
    /// version).
    pub snapshot_mass: u64,
    pub quarantined: Vec<Arc<BatchData>>,
    pub counters: ShardCounters,
    /// Pending scheme hot-swap: the target scheme version and the new base
    /// backend the worker forks the shard's new snapshot from once its
    /// queue is drained. Left in place until
    /// [`ShardChannel::complete_swap`], so a worker that dies mid-swap is
    /// simply redone by its replacement.
    pub swap_request: Option<(u64, Arc<B>)>,
    /// The retired pre-swap shard delta published by the last completed
    /// swap, awaiting collection by the engine.
    pub retired: Option<Arc<B>>,
    pub closed: bool,
    pub poisoned: bool,
}

impl<B> ControlInner<B> {
    /// Sets a batch aside in the quarantine, keeping its mass accounted.
    pub fn quarantine(&mut self, data: Arc<BatchData>) {
        self.counters.quarantined_updates += data.updates.len() as u64;
        self.counters.quarantined_mass += data.mass;
        self.quarantined.push(data);
    }
}

/// What the worker should do next (see [`ShardChannel::next_event`]).
pub(crate) enum WorkerEvent<B> {
    /// Apply this batch (already marked inflight).
    Batch(QueuedBatch),
    /// Queue is drained and a scheme swap is pending: fork the shard's new
    /// snapshot from this base, then [`ShardChannel::complete_swap`].
    Swap {
        /// The scheme version the swap installs.
        version: u64,
        /// The new base backend to fork the fresh snapshot from.
        base: Arc<B>,
    },
    /// The channel is closed and drained: exit.
    Shutdown,
}

#[derive(Debug)]
pub(crate) struct ShardChannel<B> {
    /// The lock-free hot path: attempt-0 batches from engine to worker.
    ring: SpscRing<Arc<BatchData>>,
    control: Mutex<ControlInner<B>>,
    /// Worker parks here for work / swap / close.
    work: Condvar,
    /// Engine parks here for ring space, commits, swaps and quarantines.
    progress: Condvar,
    /// Set by the consumer just before parking; the producer checks it
    /// after publishing a push and knocks (lock + notify) only when set —
    /// the saturated path never touches the mutex.
    worker_parked: AtomicBool,
    /// Mass dispatched but not yet applied or quarantined: everything in
    /// the ring, the retry deque, and the inflight slot. Credited by the
    /// lock-free producer before its ring push; debited by the worker
    /// under the control lock, so a locked stats read sees a consistent
    /// ledger.
    queued_mass: AtomicU64,
    /// Lock-free mirror of [`ControlInner::poisoned`].
    poisoned: AtomicBool,
    /// Logical capacity (the configured queue depth; the ring may be
    /// physically larger after power-of-two rounding).
    capacity: usize,
    /// Where the worker publishes epoch-stamped query snapshots.
    slot: Arc<PublishedSlot<B>>,
}

impl<B: SketchBackend> ShardChannel<B> {
    pub fn new(snapshot: Arc<B>, capacity: usize, slot: Arc<PublishedSlot<B>>) -> Self {
        let capacity = capacity.max(1);
        ShardChannel {
            ring: SpscRing::with_capacity(capacity),
            control: Mutex::new(ControlInner {
                retry: VecDeque::new(),
                inflight: None,
                snapshot,
                snapshot_mass: 0,
                quarantined: Vec::new(),
                counters: ShardCounters::default(),
                swap_request: None,
                retired: None,
                closed: false,
                poisoned: false,
            }),
            work: Condvar::new(),
            progress: Condvar::new(),
            worker_parked: AtomicBool::new(false),
            queued_mass: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            capacity,
            slot,
        }
    }

    /// Locks the control state, recovering from mutex poisoning: a lock
    /// poisoned by a worker panic marks the shard poisoned (its snapshot
    /// may be half-written) instead of propagating the panic.
    pub fn lock_always(&self) -> MutexGuard<'_, ControlInner<B>> {
        match self.control.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.poisoned = true;
                self.poisoned.store(true, Ordering::Release);
                guard
            }
        }
    }

    // -- engine (producer) side --------------------------------------------

    /// Whether the shard is poisoned (lock-free mirror).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Mass dispatched but not yet applied or quarantined.
    pub fn queued_mass(&self) -> u64 {
        self.queued_mass.load(Ordering::Acquire)
    }

    /// Enqueues a batch if there is room, without taking the control lock.
    /// The engine is the only producer, so the fullness check cannot race
    /// another push.
    pub fn try_push(&self, data: Arc<BatchData>) -> bool {
        if self.ring.len() >= self.capacity {
            return false;
        }
        let mass = data.mass;
        // Credit before the push: once the batch is visible to the worker
        // it may commit (and debit) at any moment, and the audit must never
        // see applied mass that was not first queued.
        self.queued_mass.fetch_add(mass, Ordering::AcqRel);
        if self.ring.push(data).is_err() {
            // Unreachable for a single producer (physical capacity >=
            // logical), but never lose mass accounting if the discipline
            // is somehow violated.
            debug_assert!(false, "SPSC ring rejected a push below capacity");
            self.queued_mass.fetch_sub(mass, Ordering::AcqRel);
            return false;
        }
        // Dekker-style handshake with the consumer's park: the fence
        // orders our tail store before the flag load, the consumer orders
        // its flag store before its ring re-check — so either we see the
        // flag and knock, or the consumer's re-check sees our batch.
        fence(Ordering::SeqCst);
        if self.worker_parked.load(Ordering::SeqCst) {
            // Taking the lock serializes the knock against the consumer's
            // park (the consumer holds the lock from flag-set until the
            // condvar wait releases it), so the notify cannot be lost.
            drop(self.lock_always());
            self.work.notify_all();
        }
        true
    }

    /// Waits until the ring has room for another batch (or the shard is
    /// poisoned), up to `timeout`. Returns `(has_space, poisoned)`.
    ///
    /// Spin-then-park: a bounded spin on the ring's atomics (the worker
    /// drains in microseconds under load), then a timed park. The park can
    /// in principle miss a pop that lands between the re-check and the
    /// sleep; the timeout bounds that miss, and the engine re-runs its
    /// supervisor between waits anyway — a dead worker never notifies.
    pub fn wait_space(&self, timeout: Duration) -> (bool, bool) {
        for _ in 0..SPIN_LIMIT {
            if self.ring.len() < self.capacity {
                return (true, self.is_poisoned());
            }
            if self.is_poisoned() {
                return (false, true);
            }
            std::hint::spin_loop();
        }
        let inner = self.lock_always();
        if self.ring.len() < self.capacity || inner.poisoned {
            return (self.ring.len() < self.capacity, inner.poisoned);
        }
        let inner = self
            .progress
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
        (self.ring.len() < self.capacity, inner.poisoned)
    }

    /// Waits until the shard is drained (or poisoned), up to `timeout`.
    /// Returns `(drained, poisoned)`. The condition is re-checked under the
    /// same lock the wait sleeps on, and the worker commits and dispositions
    /// batches under that lock, so a completion can never slip between the
    /// check and the sleep.
    pub fn wait_drained(&self, timeout: Duration) -> (bool, bool) {
        let inner = self.lock_always();
        if self.is_drained(&inner) || inner.poisoned {
            return (self.is_drained(&inner), inner.poisoned);
        }
        let inner = self
            .progress
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
        (self.is_drained(&inner), inner.poisoned)
    }

    /// Whether every dispatched batch has been committed or quarantined.
    /// Called with the control lock held: a batch moves from the ring to
    /// the inflight slot, and on to the retry deque, only under that lock.
    fn is_drained(&self, inner: &ControlInner<B>) -> bool {
        inner.inflight.is_none() && inner.retry.is_empty() && self.ring.is_empty()
    }

    /// Whether the channel is closed and has nothing left to apply, so a
    /// finished worker thread exited rather than died.
    pub fn closed_and_drained(&self) -> bool {
        let inner = self.lock_always();
        inner.closed && self.is_drained(&inner)
    }

    /// Requests a scheme hot-swap to `version`: once the worker drains its
    /// queue it will retire the shard's snapshot and fork a fresh one from
    /// `base`. The request stays set until the worker completes it, so a
    /// worker death mid-swap is redone by the replacement worker.
    pub fn request_swap(&self, version: u64, base: Arc<B>) {
        let mut inner = self.lock_always();
        inner.swap_request = Some((version, base));
        drop(inner);
        self.work.notify_all();
    }

    /// Waits until the pending swap completes (or the shard is poisoned),
    /// up to `timeout`. Returns `(done, poisoned)`.
    pub fn wait_swap(&self, timeout: Duration) -> (bool, bool) {
        let mut inner = self.lock_always();
        if inner.swap_request.is_none() || inner.poisoned {
            return (inner.swap_request.is_none(), inner.poisoned);
        }
        inner = self
            .progress
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
        (inner.swap_request.is_none(), inner.poisoned)
    }

    /// Collects the retired pre-swap delta published by the last completed
    /// swap.
    pub fn take_retired(&self) -> Option<Arc<B>> {
        self.lock_always().retired.take()
    }

    /// Closes the channel: the worker commits the remaining queue, then
    /// exits.
    pub fn close(&self) {
        let mut inner = self.lock_always();
        inner.closed = true;
        drop(inner);
        self.work.notify_all();
        self.progress.notify_all();
    }

    // -- worker (consumer) side --------------------------------------------

    /// The shard's committed snapshot, or `None` if the shard is poisoned.
    pub fn snapshot(&self) -> Option<Arc<B>> {
        let inner = self.lock_always();
        (!inner.poisoned).then(|| Arc::clone(&inner.snapshot))
    }

    /// Blocks for the next worker event. Popping a batch and marking it
    /// inflight happens under the control lock, and a swap or shutdown is
    /// only surfaced once the queue is empty.
    pub fn next_event(&self) -> WorkerEvent<B> {
        let mut idle = false;
        loop {
            // Spin-then-park, spin half: after an empty pass, watch the
            // ring's atomics briefly before paying for the park protocol.
            if idle {
                for _ in 0..SPIN_LIMIT {
                    if !self.ring.is_empty() {
                        break;
                    }
                    std::hint::spin_loop();
                }
            }
            let mut inner = self.lock_always();
            // Retried batches outrank the ring: a requeued batch keeps its
            // original dispatch order ahead of anything newer.
            if let Some(batch) = inner.retry.pop_front() {
                inner.inflight = Some(batch.clone());
                drop(inner);
                self.progress.notify_all();
                return WorkerEvent::Batch(batch);
            }
            // Ring batches outrank shutdown: a closed channel is drained
            // before the worker exits, so `close` never strands admitted
            // mass.
            if let Some(data) = self.ring.pop() {
                let batch = QueuedBatch { data, attempts: 0 };
                inner.inflight = Some(batch.clone());
                drop(inner);
                self.progress.notify_all();
                return WorkerEvent::Batch(batch);
            }
            // A pending swap is surfaced by *peeking* — it stays requested
            // until `complete_swap`, so a worker that dies between here and
            // completion hands the still-pending swap to its replacement.
            if let Some((version, base)) = inner.swap_request.as_ref() {
                return WorkerEvent::Swap {
                    version: *version,
                    base: Arc::clone(base),
                };
            }
            if inner.closed {
                return WorkerEvent::Shutdown;
            }
            // Park. Announce the flag, then re-check the ring once: the
            // producer checks the flag only *after* its tail store (with a
            // SeqCst fence between), so either the re-check sees its batch
            // or the producer sees our flag and knocks. We hold the control
            // lock from the flag store until the condvar wait releases it,
            // so the knock's notify cannot land before we sleep. The timed
            // wait is a pure backstop.
            self.worker_parked.store(true, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if !self.ring.is_empty() {
                self.worker_parked.store(false, Ordering::SeqCst);
                idle = false;
                continue;
            }
            let guard = self
                .work
                .wait_timeout(inner, PARK_BACKSTOP)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            drop(guard);
            self.worker_parked.store(false, Ordering::SeqCst);
            idle = true;
        }
    }

    /// Commits a successfully applied batch: credits the applied counters,
    /// makes `snapshot` (the worker's copy with the batch applied) the
    /// shard's committed snapshot, clears the inflight slot and publishes
    /// the snapshot to the query slot — one critical section, so the batch
    /// is either inflight (to be applied again) or inside the committed
    /// snapshot, never both or neither.
    ///
    /// `failpoint` is called with the `worker::checkpoint` and
    /// `worker::publish` failpoint names, both inside the critical section
    /// (a panic at either poisons the shard, which is exactly the scenario
    /// they exist to exercise). Because the slot is published before the
    /// control lock drops, an engine that sees the shard drained already
    /// sees the batch on the wait-free path. Readers never take the control
    /// lock, and the slot lock wraps one `Arc` store, so a reader still
    /// never waits on the control section.
    pub fn commit(&self, batch: QueuedBatch, snapshot: Arc<B>, failpoint: impl Fn(&'static str)) {
        let mut inner = self.lock_always();
        let mass = batch.data.mass;
        inner.counters.applied_updates += batch.data.updates.len() as u64;
        inner.counters.applied_mass += mass;
        self.queued_mass.fetch_sub(mass, Ordering::AcqRel);
        failpoint("worker::checkpoint");
        inner.snapshot = Arc::clone(&snapshot);
        inner.snapshot_mass += mass;
        inner.inflight = None;
        failpoint("worker::publish");
        self.slot.publish(snapshot, inner.snapshot_mass);
        drop(inner);
        self.progress.notify_all();
    }

    /// Fails the inflight batch (after a caught panic or a worker death):
    /// requeues it at the front of the retry deque for another attempt, or
    /// quarantines it once `MAX_BATCH_ATTEMPTS` attempts are exhausted.
    ///
    /// The [`FaultEvent`] is recorded in `log` before the control lock
    /// drops, so an engine that sees the shard drained also sees the event.
    /// The lock order is control, then fault log.
    pub fn fail_inflight(&self, log: &SharedFaultLog, shard: usize) {
        let mut inner = self.lock_always();
        let Some(batch) = inner.inflight.take() else {
            return;
        };
        inner.counters.batch_failures += 1;
        let attempt = batch.attempts + 1;
        let mass = batch.data.mass;
        let event = if attempt >= MAX_BATCH_ATTEMPTS {
            let updates = batch.data.updates.len();
            self.queued_mass.fetch_sub(mass, Ordering::AcqRel);
            inner.quarantine(batch.data);
            FaultEvent::BatchQuarantined {
                shard,
                mass,
                updates,
            }
        } else {
            inner.retry.push_front(QueuedBatch {
                data: batch.data,
                attempts: attempt,
            });
            FaultEvent::BatchPanicked {
                shard,
                attempt,
                mass,
            }
        };
        fault::record(log, event);
        drop(inner);
        self.progress.notify_all();
    }

    /// Completes a pending scheme swap in one critical section: `fresh` (a
    /// fork of the swapped-in base) becomes the shard's committed snapshot,
    /// the pre-swap snapshot is parked for the engine to collect, and the
    /// request is cleared. Until this commits, a replacement worker still
    /// starts from the *old* snapshot and redoes the swap — so the swap is
    /// atomic with respect to worker death. The fresh and retired snapshots
    /// are published to the query-snapshot slot under the new `version` in
    /// the same critical section (after `failpoint("worker::publish")`), so
    /// the engine never sees the request cleared before readers can see the
    /// new version.
    pub fn complete_swap(&self, version: u64, fresh: Arc<B>, failpoint: impl Fn(&'static str)) {
        let mut inner = self.lock_always();
        let retired = std::mem::replace(&mut inner.snapshot, Arc::clone(&fresh));
        let retired_mass = std::mem::take(&mut inner.snapshot_mass);
        inner.retired = Some(Arc::clone(&retired));
        inner.swap_request = None;
        failpoint("worker::publish");
        self.slot
            .publish_swap(version, fresh, retired_mass, retired);
        drop(inner);
        self.progress.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opthash_sketch::CountMinSketch;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    #[test]
    fn ring_wraps_around_capacity_boundaries() {
        // Logical capacity 3 rounds up to a physical 4; push/pop cycles of
        // mixed lengths walk the indices far past every wrap boundary.
        let ring = SpscRing::with_capacity(3);
        let mut next = 0u64;
        let mut expect = 0u64;
        for round in 0..1_000 {
            let burst = 1 + (round % 4);
            for _ in 0..burst {
                ring.push(next).expect("ring has room for the burst");
                next += 1;
            }
            for _ in 0..burst {
                assert_eq!(ring.pop(), Some(expect), "FIFO order across wraps");
                expect += 1;
            }
        }
        assert!(ring.is_empty());
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn ring_rejects_pushes_only_when_physically_full() {
        let ring = SpscRing::with_capacity(2);
        ring.push(1u32).unwrap();
        ring.push(2u32).unwrap();
        assert_eq!(ring.push(3u32), Err(3u32), "physical capacity is 2");
        assert_eq!(ring.pop(), Some(1));
        ring.push(3u32).unwrap();
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), Some(3));
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn ring_hammer_preserves_order_through_full_and_empty_races() {
        // A tiny ring forces constant full/empty collisions between the
        // producer and consumer; the consumer asserts exact FIFO order, so
        // any torn index update or double-delivery fails loudly. The
        // busy-wait sides *yield* rather than pure-spin: on a single
        // hardware thread a pure spin can only make progress once the
        // scheduler preempts it, which turns every collision into a full
        // quantum.
        const N: u64 = 20_000;
        let ring = Arc::new(SpscRing::with_capacity(2));
        let consumer = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                let mut expect = 0u64;
                while expect < N {
                    if let Some(value) = ring.pop() {
                        assert_eq!(value, expect, "values arrive in push order");
                        expect += 1;
                    } else {
                        thread::yield_now();
                    }
                }
                assert_eq!(ring.pop(), None);
            })
        };
        let mut value = 0u64;
        while value < N {
            match ring.push(value) {
                Ok(()) => value += 1,
                Err(_) => thread::yield_now(),
            }
        }
        consumer.join().expect("consumer thread panicked");
    }

    #[test]
    fn dropping_a_ring_drops_every_queued_value_once() {
        struct CountsDrops(Arc<AtomicUsize>);
        impl Drop for CountsDrops {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let ring = SpscRing::with_capacity(4);
        for _ in 0..3 {
            ring.push(CountsDrops(Arc::clone(&drops))).ok().unwrap();
        }
        // Pop one (dropped here), leave two queued for Drop to drain.
        drop(ring.pop());
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(ring);
        assert_eq!(drops.load(Ordering::SeqCst), 3, "Drop drains the ring");
    }

    fn batch(id: u64, mass: u64) -> Arc<BatchData> {
        Arc::new(BatchData {
            updates: vec![(opthash_stream::StreamElement::without_features(id), mass)],
            mass,
        })
    }

    fn channel(capacity: usize) -> ShardChannel<CountMinSketch> {
        let empty = Arc::new(CountMinSketch::new(64, 2, 1));
        let slot = Arc::new(PublishedSlot::new(Arc::clone(&empty)));
        ShardChannel::new(empty, capacity, slot)
    }

    #[test]
    fn closing_a_full_channel_still_drains_every_batch_before_shutdown() {
        // shutdown-while-full: fill the ring to capacity with no consumer,
        // close, then attach a consumer. Every batch must surface before
        // Shutdown, and the queued-mass ledger must drain to zero.
        let cell = Arc::new(channel(2));
        assert!(cell.try_push(batch(1, 10)));
        assert!(cell.try_push(batch(2, 20)));
        assert!(!cell.try_push(batch(3, 30)), "full ring rejects the push");
        assert_eq!(cell.queued_mass(), 30);
        cell.close();

        let consumer = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                let mut seen = Vec::new();
                loop {
                    match cell.next_event() {
                        WorkerEvent::Batch(b) => {
                            seen.push(b.data.mass);
                            cell.commit(b, cell.snapshot().unwrap(), |_| {});
                        }
                        WorkerEvent::Shutdown => return seen,
                        _ => panic!("unexpected event"),
                    }
                }
            })
        };
        let seen = consumer.join().expect("consumer thread panicked");
        assert_eq!(seen, vec![10, 20], "both batches drained, in order");
        assert_eq!(cell.queued_mass(), 0);
    }

    #[test]
    fn parked_consumer_wakes_for_pushes_and_retry_outranks_the_ring() {
        let cell = Arc::new(channel(4));
        let log = SharedFaultLog::default();
        let consumer = {
            let cell = Arc::clone(&cell);
            let log = Arc::clone(&log);
            thread::spawn(move || {
                let mut masses = Vec::new();
                loop {
                    match cell.next_event() {
                        WorkerEvent::Batch(b) => {
                            // Fail the very first batch once so it lands in
                            // the retry deque and must come back first.
                            if masses.is_empty() && b.attempts == 0 && b.data.mass == 7 {
                                cell.fail_inflight(&log, 0);
                                continue;
                            }
                            masses.push((b.data.mass, b.attempts));
                            cell.commit(b, cell.snapshot().unwrap(), |_| {});
                        }
                        WorkerEvent::Shutdown => return masses,
                        _ => panic!("unexpected event"),
                    }
                }
            })
        };
        // Let the consumer reach its park before pushing.
        thread::sleep(Duration::from_millis(5));
        assert!(cell.try_push(batch(1, 7)));
        assert!(cell.try_push(batch(2, 9)));
        thread::sleep(Duration::from_millis(20));
        cell.close();
        let masses = consumer.join().expect("consumer thread panicked");
        assert_eq!(
            masses,
            vec![(7, 1), (9, 0)],
            "retried batch surfaces before newer ring work"
        );
        assert_eq!(cell.queued_mass(), 0);
        assert_eq!(log.lock().unwrap().batch_panics(), 1);
    }
}
