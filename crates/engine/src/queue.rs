//! Bounded per-shard work channels: one batch deque and the shard's
//! fault-tolerance state, all behind one control mutex.
//!
//! Each shard of an [`crate::IngestEngine`] owns one [`ShardChannel`]. The
//! engine (the only producer) pushes pre-aggregated batches and the shard
//! worker (the only consumer) pops them, both under the control mutex. A
//! hand-off is rare: a batch pre-aggregates up to `batch_capacity`
//! distinct IDs, so pushes come thousands of times less often than
//! arrivals, and the worker takes the same lock to commit every batch
//! anyway.
//!
//! The control mutex guards:
//!
//! * `queue` — dispatched batches, oldest first. A batch that failed goes
//!   back to the front, so a retry runs before anything newer;
//! * `inflight` — the batch the worker is currently applying (popping a
//!   batch and marking it inflight is one critical section, so a batch can
//!   never fall between the queue and the worker when a panic strikes);
//! * `snapshot` — the shard's committed accumulated delta, an `Arc`
//!   replaced wholesale by every commit (never mutated in place) and
//!   shared with the shard's [`crate::snapshot::PublishedSlot`], so
//!   publishing a wait-free query snapshot costs one `Arc` clone. The
//!   worker applies each batch to a copy of it, and a replacement worker
//!   simply starts from it;
//! * `quarantined` — poison-pill batches set aside after exhausting their
//!   application attempts, and batches sent to a poisoned shard, retained
//!   so their mass stays accounted;
//! * `counters`, including the queued mass: dispatched but not yet applied
//!   or quarantined. The push credits it and the commit or quarantine
//!   debits it under the lock that [`crate::IngestEngine::stats`] reads
//!   it under, so the engine-wide conservation audit
//!   ([`crate::EngineStats::unaccounted_mass`]) balances at every
//!   observable instant.
//!
//! Every change a side waits for is made under the control lock and then
//! notified: a push, a swap request or `close` on `work`, where the worker
//! waits with no timeout; a pop, commit, failure or swap completion on
//! `progress`, where the engine waits. The engine's waits are timed only so
//! that it can supervise between them, because a dead worker never
//! notifies.
//!
//! A shard is *drained* when its queue and inflight slot are both empty.
//! Only the engine pushes, so the engine sees a drained shard stay drained,
//! and its committed snapshot then covers every batch it dispatched. Mutex
//! poisoning is handled everywhere via [`ShardChannel::lock_always`]: a
//! poisoned lock marks the shard poisoned rather than cascading panics.

use crate::backend::SketchBackend;
use crate::error::EngineError;
use crate::fault::{self, FaultEvent, SharedFaultLog};
use crate::snapshot::PublishedSlot;
use opthash_stream::StreamElement;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Application attempts before a panicking batch is quarantined as a
/// poison pill instead of being retried forever.
const MAX_BATCH_ATTEMPTS: u32 = 3;

/// A drained batch: the pre-aggregated `(element, count)` updates of one
/// shard buffer. Immutable once built; shared by `Arc` between the queue
/// and the inflight slot, so a requeue never copies the update data.
#[derive(Debug)]
pub(crate) struct BatchData {
    /// Pre-aggregated weighted updates, in first-seen order.
    pub updates: Vec<(StreamElement, u64)>,
    /// Total count mass of the batch (sum of the update weights).
    pub mass: u64,
}

/// A batch in the queue or the inflight slot, with its application-attempt
/// count (for poison-pill quarantine). The engine queues every batch at
/// attempt 0; a failed batch returns to the front with its count raised.
#[derive(Debug, Clone)]
pub(crate) struct QueuedBatch {
    pub data: Arc<BatchData>,
    /// Completed application attempts (0 for a never-tried batch).
    pub attempts: u32,
}

/// Per-shard counters, maintained under the control lock.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardCounters {
    pub applied_updates: u64,
    pub applied_mass: u64,
    /// Mass dispatched but not yet applied or quarantined: everything in
    /// the queue and the inflight slot.
    pub queued_mass: u64,
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
        self.queued_mass += other.queued_mass;
        self.quarantined_updates += other.quarantined_updates;
        self.quarantined_mass += other.quarantined_mass;
        self.batch_failures += other.batch_failures;
        self.worker_restarts += other.worker_restarts;
    }
}

/// Everything guarded by the control mutex.
#[derive(Debug)]
pub(crate) struct ControlInner<B> {
    /// Dispatched batches, oldest first; a failed batch is requeued at the
    /// front so it keeps its place ahead of anything newer.
    pub queue: VecDeque<QueuedBatch>,
    /// Queue depth at which [`ShardChannel::try_push`] refuses a batch.
    capacity: usize,
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
    /// Sets `shard`'s batch aside in the quarantine, keeping its mass
    /// accounted, and returns the event to log.
    fn quarantine(&mut self, data: Arc<BatchData>, shard: usize) -> FaultEvent {
        let (mass, updates) = (data.mass, data.updates.len());
        self.counters.quarantined_updates += updates as u64;
        self.counters.quarantined_mass += mass;
        self.quarantined.push(data);
        FaultEvent::BatchQuarantined {
            shard,
            mass,
            updates,
        }
    }

    /// Whether the queue has room for another batch.
    pub fn has_room(&self) -> bool {
        self.queue.len() < self.capacity
    }

    /// Whether every dispatched batch has been committed or quarantined.
    pub fn is_drained(&self) -> bool {
        self.queue.is_empty() && self.inflight.is_none()
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
    control: Mutex<ControlInner<B>>,
    /// The worker waits here for a batch, a swap request or close.
    work: Condvar,
    /// The engine waits here for queue room, commits, swaps and
    /// quarantines.
    progress: Condvar,
    /// Where the worker publishes epoch-stamped query snapshots.
    slot: Arc<PublishedSlot<B>>,
}

impl<B: SketchBackend> ShardChannel<B> {
    pub fn new(snapshot: Arc<B>, capacity: usize, slot: Arc<PublishedSlot<B>>) -> Self {
        ShardChannel {
            control: Mutex::new(ControlInner {
                queue: VecDeque::new(),
                capacity: capacity.max(1),
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
                guard
            }
        }
    }

    // -- engine (producer) side --------------------------------------------

    /// Enqueues a batch if the queue has room: `Ok(true)` once it is
    /// queued, `Ok(false)` if the queue is full.
    ///
    /// A poisoned shard's worker never drains again, so a batch sent to it
    /// goes to the quarantine instead, keeping its mass accounted, and the
    /// push fails with [`EngineError::ShardPoisoned`]. The
    /// [`FaultEvent::BatchQuarantined`] is recorded in `log` before the
    /// control lock drops (lock order: control, then fault log).
    pub fn try_push(
        &self,
        data: &Arc<BatchData>,
        log: &SharedFaultLog,
        shard: usize,
    ) -> Result<bool, EngineError> {
        let mut inner = self.lock_always();
        if inner.poisoned {
            let event = inner.quarantine(Arc::clone(data), shard);
            fault::record(log, event);
            return Err(EngineError::ShardPoisoned { shard });
        }
        if !inner.has_room() {
            return Ok(false);
        }
        inner.counters.queued_mass += data.mass;
        inner.queue.push_back(QueuedBatch {
            data: Arc::clone(data),
            attempts: 0,
        });
        drop(inner);
        self.work.notify_all();
        Ok(true)
    }

    /// Waits until `done` holds for the shard's control state (or the shard
    /// is poisoned), up to `timeout`. Returns `(done, poisoned)`. The
    /// condition is checked under the lock the wait sleeps on, and the
    /// worker changes that state only under the lock before notifying, so
    /// a change can never slip between the check and the sleep.
    pub fn wait(&self, timeout: Duration, done: impl Fn(&ControlInner<B>) -> bool) -> (bool, bool) {
        let inner = self.lock_always();
        let (inner, _) = self
            .progress
            .wait_timeout_while(inner, timeout, |inner| !inner.poisoned && !done(inner))
            .unwrap_or_else(PoisonError::into_inner);
        (done(&inner), inner.poisoned)
    }

    /// Whether the channel is closed and has nothing left to apply, so a
    /// finished worker thread exited rather than died.
    pub fn closed_and_drained(&self) -> bool {
        let inner = self.lock_always();
        inner.closed && inner.is_drained()
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
    }

    // -- worker (consumer) side --------------------------------------------

    /// The shard's committed snapshot, or `None` if the shard is poisoned.
    pub fn snapshot(&self) -> Option<Arc<B>> {
        let inner = self.lock_always();
        (!inner.poisoned).then(|| Arc::clone(&inner.snapshot))
    }

    /// Blocks for the next worker event. Popping a batch and marking it
    /// inflight is one critical section, and a swap or shutdown is only
    /// surfaced once the queue is empty. The wait needs no timeout: a push,
    /// a swap request and `close` each change the state under the control
    /// lock and then notify `work`.
    pub fn next_event(&self) -> WorkerEvent<B> {
        let mut inner = self.lock_always();
        loop {
            // Batches outrank shutdown: a closed channel is drained before
            // the worker exits, so `close` never strands admitted mass.
            if let Some(batch) = inner.queue.pop_front() {
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
            inner = self
                .work
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
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
        inner.counters.queued_mass -= mass;
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
    /// requeues it at the front of the queue for another attempt, or
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
            inner.counters.queued_mass -= mass;
            inner.quarantine(batch.data, shard)
        } else {
            inner.queue.push_front(QueuedBatch {
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
    use std::thread;

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

    fn queued_mass(cell: &ShardChannel<CountMinSketch>) -> u64 {
        cell.lock_always().counters.queued_mass
    }

    #[test]
    fn closing_a_full_channel_still_drains_every_batch_before_shutdown() {
        // shutdown-while-full: fill the queue to capacity with no consumer,
        // close, then attach a consumer. Every batch must surface before
        // Shutdown, and the queued-mass ledger must drain to zero.
        let cell = Arc::new(channel(2));
        let log = SharedFaultLog::default();
        assert_eq!(cell.try_push(&batch(1, 10), &log, 0), Ok(true));
        assert_eq!(cell.try_push(&batch(2, 20), &log, 0), Ok(true));
        assert_eq!(
            cell.try_push(&batch(3, 30), &log, 0),
            Ok(false),
            "a full queue refuses the push"
        );
        assert_eq!(queued_mass(&cell), 30);
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
        assert_eq!(queued_mass(&cell), 0);
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
                            // Fail the very first batch once so it returns
                            // to the front and must come back first.
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
        // Let the consumer reach its wait before pushing.
        thread::sleep(Duration::from_millis(5));
        assert_eq!(cell.try_push(&batch(1, 7), &log, 0), Ok(true));
        assert_eq!(cell.try_push(&batch(2, 9), &log, 0), Ok(true));
        // The pushes alone must wake the consumer: `close` notifies too, so
        // the shard has to drain before it is called, or a lost wake-up
        // would go unnoticed.
        let (drained, poisoned) = cell.wait(Duration::from_secs(5), ControlInner::is_drained);
        assert!(
            drained && !poisoned,
            "the consumer never woke for the pushes"
        );
        cell.close();
        let masses = consumer.join().expect("consumer thread panicked");
        assert_eq!(
            masses,
            vec![(7, 1), (9, 0)],
            "the retried batch surfaces before newer work"
        );
        assert_eq!(queued_mass(&cell), 0);
        assert_eq!(log.lock().unwrap().batch_panics(), 1);
    }
}
