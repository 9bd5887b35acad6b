//! Persistent, panic-isolated shard workers.
//!
//! Each shard of an [`crate::IngestEngine`] runs one thread that
//! drains the shard's [`ShardChannel`] for as long as the engine lives. The
//! worker owns a private *scratch* backend (always equal to the shard's
//! checkpointed snapshot plus the journaled batches replayed on top) and
//! applies every batch inside [`std::panic::catch_unwind`]:
//!
//! * a panic during batch application corrupts only the scratch state — the
//!   worker discards it, rebuilds from `snapshot ⊕ journal`, and the failed
//!   batch is retried (then quarantined after three attempts, so a poison
//!   pill can't wedge the shard forever);
//! * a panic that escapes the loop kills the thread — the engine's
//!   supervisor detects the death, requeues any inflight batch, spawns a
//!   replacement worker of the next generation, and the replacement rebuilds
//!   the scratch state the same way, replaying the surviving queue;
//! * every `checkpoint_interval` committed batches (and at every sync
//!   barrier) the worker publishes a clone of its scratch state as the new
//!   snapshot, bounding both the journal's memory and the replay a recovery
//!   has to perform.

use crate::backend::SketchBackend;
use crate::fault::{self, FaultEvent, FaultInjector, SharedFaultLog};
use crate::queue::{BatchData, FailDisposition, ShardChannel, WorkerEvent};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Worker-side configuration, copied out of the engine config.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkerConfig {
    pub shard: usize,
    pub checkpoint_interval: u32,
}

/// The engine's handle to one shard: channel, thread, and restart
/// bookkeeping. Dropping the handle closes the channel and joins the
/// thread, so an engine can never leak workers.
#[derive(Debug)]
pub(crate) struct ShardHandle<B: SketchBackend> {
    pub cell: Arc<ShardChannel<B>>,
    pub thread: Option<JoinHandle<()>>,
    /// Generation of the current worker (0 = the original).
    pub generation: u32,
    /// Ensures `ShardPoisoned` is logged once, not per supervision pass.
    pub poison_logged: bool,
}

impl<B: SketchBackend> ShardHandle<B> {
    /// Closes the channel and joins the worker thread (idempotent).
    pub fn shutdown(&mut self) {
        self.cell.close();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl<B: SketchBackend> Drop for ShardHandle<B> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Applies every update of a batch, without failpoints — used for journal
/// replay, which re-applies batches that already succeeded once. Uses the
/// backend's (possibly row-major) bulk path.
pub(crate) fn apply_batch<B: SketchBackend>(backend: &mut B, batch: &BatchData) {
    backend.ingest_batch(&batch.updates);
}

/// Applies every update of a batch — the first-application path. With the
/// `failpoints` feature the per-update loop consults the `worker::apply`
/// failpoint before each update (so a test can panic mid-batch); without it
/// the batch goes through the backend's bulk path.
#[cfg(feature = "failpoints")]
pub(crate) fn apply_batch_injected<B: SketchBackend>(
    backend: &mut B,
    batch: &BatchData,
    faults: &FaultInjector,
    shard: usize,
) {
    for (element, count) in &batch.updates {
        faults.hit_at("worker::apply", Some(shard));
        backend.ingest(element, *count);
    }
}

/// Failpoint-free build: batch application is exactly the bulk path.
#[cfg(not(feature = "failpoints"))]
pub(crate) fn apply_batch_injected<B: SketchBackend>(
    backend: &mut B,
    batch: &BatchData,
    _faults: &FaultInjector,
    _shard: usize,
) {
    apply_batch(backend, batch);
}

/// Spawns a worker of the given generation for `cell`.
pub(crate) fn spawn_worker<B: SketchBackend + 'static>(
    cell: Arc<ShardChannel<B>>,
    log: SharedFaultLog,
    faults: FaultInjector,
    config: WorkerConfig,
    generation: u32,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("opthash-shard-{}.{generation}", config.shard))
        // Workers keep their state on the heap (scratch backend + batches);
        // a small stack makes spawning cheap enough for short-lived engines.
        .stack_size(256 * 1024)
        .spawn(move || run_worker(cell, log, faults, config))
        .expect("failed to spawn shard worker thread")
}

fn run_worker<B: SketchBackend>(
    cell: Arc<ShardChannel<B>>,
    log: SharedFaultLog,
    faults: FaultInjector,
    config: WorkerConfig,
) {
    let shard = config.shard;
    // Bootstrap (and rebuild, for a replacement worker): scratch state is
    // the last consistent snapshot plus the journal replayed in order; the
    // mass tally rides along so every published snapshot carries the
    // applied mass it accounts for.
    let Some((mut scratch, mut scratch_mass)) = rebuild_scratch(&cell) else {
        return; // shard poisoned: nothing a worker can safely do
    };
    let mut since_checkpoint = 0u32;
    let failpoint = |name| faults.hit_at(name, Some(shard));
    loop {
        faults.hit_at("worker::poll", Some(shard));
        match cell.next_event() {
            WorkerEvent::Shutdown => {
                // Final checkpoint by move: the queue is already drained
                // (`next_event` prefers batches over shutdown), so scratch
                // covers every dispatched batch and no clone is needed.
                cell.publish_exit(scratch, scratch_mass);
                return;
            }
            WorkerEvent::Swap { version, base } => {
                // A panic here (the `worker::swap` failpoint) escapes the
                // loop and kills the worker *before* anything changed: the
                // request is still pending, so the supervisor's replacement
                // worker rebuilds the old scratch and redoes the swap.
                faults.hit_at("worker::swap", Some(shard));
                let fresh = base.fork();
                let retired = std::mem::replace(&mut scratch, fresh);
                cell.complete_swap(
                    version,
                    Arc::new(scratch.clone()),
                    Arc::new(retired),
                    scratch_mass,
                    failpoint,
                );
                scratch_mass = 0;
                since_checkpoint = 0;
            }
            WorkerEvent::Sync(epoch) => {
                let snapshot = Arc::new(scratch.clone());
                cell.checkpoint(snapshot, scratch_mass, Some(epoch), failpoint);
                since_checkpoint = 0;
            }
            WorkerEvent::Batch(batch) => {
                faults.hit_at("worker::batch", Some(shard));
                let applied = catch_unwind(AssertUnwindSafe(|| {
                    apply_batch_injected(&mut scratch, &batch.data, &faults, shard);
                }));
                match applied {
                    Ok(()) => {
                        // A death here (between apply and commit) leaves the
                        // batch inflight: the replacement worker's rebuilt
                        // scratch excludes it and the supervisor requeues it,
                        // so it is applied exactly once either way.
                        faults.hit_at("worker::before_commit", Some(shard));
                        let mass = batch.data.mass;
                        cell.commit(batch);
                        scratch_mass += mass;
                        since_checkpoint += 1;
                        if since_checkpoint >= config.checkpoint_interval {
                            let snapshot = Arc::new(scratch.clone());
                            cell.checkpoint(snapshot, scratch_mass, None, failpoint);
                            since_checkpoint = 0;
                        }
                    }
                    Err(_) => {
                        // The scratch state is suspect (the panic may have
                        // struck mid-update): disposition the batch, then
                        // rebuild scratch from the last consistent state.
                        match cell.fail_inflight() {
                            FailDisposition::Requeued { attempt, mass } => fault::record(
                                &log,
                                FaultEvent::BatchPanicked {
                                    shard,
                                    attempt,
                                    mass,
                                },
                            ),
                            FailDisposition::Quarantined { mass, updates } => fault::record(
                                &log,
                                FaultEvent::BatchQuarantined {
                                    shard,
                                    mass,
                                    updates,
                                },
                            ),
                            FailDisposition::Idle => {}
                        }
                        let Some((rebuilt, rebuilt_mass)) = rebuild_scratch(&cell) else {
                            return;
                        };
                        scratch = rebuilt;
                        scratch_mass = rebuilt_mass;
                        since_checkpoint = 0;
                    }
                }
            }
        }
    }
}

fn rebuild_scratch<B: SketchBackend>(cell: &ShardChannel<B>) -> Option<(B, u64)> {
    let (mut scratch, mut mass, journal) = cell.recovery_state()?;
    for batch in &journal {
        apply_batch(&mut scratch, batch);
        mass += batch.mass;
    }
    Some((scratch, mass))
}
