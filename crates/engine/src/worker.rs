//! Persistent, panic-isolated, stateless shard workers.
//!
//! Each shard of an [`crate::IngestEngine`] runs one thread that drains the
//! shard's [`ShardChannel`] for as long as the engine lives. The worker
//! keeps no state of its own between batches. For each batch it copies the
//! shard's committed snapshot, applies the batch to the copy inside
//! [`std::panic::catch_unwind`], and commits the copy as the shard's new
//! snapshot:
//!
//! * a panic during batch application leaves only the copy suspect — the
//!   worker drops it, and the failed batch is retried (then quarantined
//!   after three attempts, so a poison pill can't wedge the shard forever);
//! * a panic that escapes the loop kills the thread — the engine's
//!   supervisor detects the death, requeues any inflight batch, and spawns
//!   a replacement worker of the next generation, which starts from the
//!   committed snapshot and drains the surviving queue.

use crate::backend::SketchBackend;
use crate::fault::{FaultInjector, SharedFaultLog};
use crate::queue::{BatchData, ShardChannel, WorkerEvent};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

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

/// Applies every update of a batch. With the `failpoints` feature the
/// per-update loop consults the `worker::apply` failpoint before each
/// update (so a test can panic mid-batch).
#[cfg(feature = "failpoints")]
fn apply_batch<B: SketchBackend>(
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

/// Failpoint-free build: batch application is the backend's (possibly
/// row-major) bulk path.
#[cfg(not(feature = "failpoints"))]
fn apply_batch<B: SketchBackend>(
    backend: &mut B,
    batch: &BatchData,
    _faults: &FaultInjector,
    _shard: usize,
) {
    backend.ingest_batch(&batch.updates);
}

/// Spawns a worker of the given generation for `shard`'s channel.
pub(crate) fn spawn_worker<B: SketchBackend + 'static>(
    cell: Arc<ShardChannel<B>>,
    log: SharedFaultLog,
    faults: FaultInjector,
    shard: usize,
    generation: u32,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("opthash-shard-{shard}.{generation}"))
        // Workers keep their state on the heap (snapshot copies + batches);
        // a small stack makes spawning cheap enough for short-lived engines.
        .stack_size(256 * 1024)
        .spawn(move || run_worker(&cell, &log, &faults, shard))
        .expect("failed to spawn shard worker thread")
}

fn run_worker<B: SketchBackend>(
    cell: &ShardChannel<B>,
    log: &SharedFaultLog,
    faults: &FaultInjector,
    shard: usize,
) {
    let failpoint = |name| faults.hit_at(name, Some(shard));
    loop {
        faults.hit_at("worker::poll", Some(shard));
        match cell.next_event() {
            WorkerEvent::Shutdown => return,
            WorkerEvent::Swap { version, base } => {
                // A panic here (the `worker::swap` failpoint) escapes the
                // loop and kills the worker *before* anything changed: the
                // request is still pending, so the supervisor's replacement
                // worker redoes the swap.
                faults.hit_at("worker::swap", Some(shard));
                cell.complete_swap(version, Arc::new(base.fork()), failpoint);
            }
            WorkerEvent::Batch(batch) => {
                let Some(committed) = cell.snapshot() else {
                    return; // shard poisoned: nothing a worker can safely do
                };
                faults.hit_at("worker::batch", Some(shard));
                let applied = catch_unwind(AssertUnwindSafe(|| {
                    let mut copy = (*committed).clone();
                    apply_batch(&mut copy, &batch.data, faults, shard);
                    copy
                }));
                match applied {
                    Ok(copy) => {
                        // A death here (between apply and commit) leaves the
                        // batch inflight and the committed snapshot without
                        // it; the supervisor requeues it, so it is applied
                        // exactly once either way.
                        faults.hit_at("worker::before_commit", Some(shard));
                        cell.commit(batch, Arc::new(copy), failpoint);
                    }
                    // The panic may have struck mid-update, so the copy is
                    // gone with it; the committed snapshot is untouched.
                    Err(_) => cell.fail_inflight(log, shard),
                }
            }
        }
    }
}
