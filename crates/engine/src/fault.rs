//! Fault handling as a first-class subsystem: the [`FaultLog`] records every
//! robustness event the engine survives (batch panics, quarantines, worker
//! restarts, shard poisonings), and — behind the `failpoints` cargo feature —
//! the [`FaultInjector`] drives *deterministic* fault injection at named
//! points on the ingest/flush/worker paths.
//!
//! # Failpoints
//!
//! With `--features failpoints`, the engine consults its injector at these
//! named points (a `@<shard>` suffix scopes a program to one shard, e.g.
//! `"worker::poll@2"`):
//!
//! | name                    | where it fires                               |
//! |-------------------------|----------------------------------------------|
//! | `engine::ingest`        | entry of every ingest call (error/delay)     |
//! | `worker::poll`          | top of the worker loop, outside batch apply  |
//! | `worker::batch`         | once per batch, before its first update      |
//! | `worker::apply`         | before every single update of a batch        |
//! | `worker::before_commit` | after a batch applied, before its commit     |
//! | `worker::checkpoint`    | inside a batch commit's critical section     |
//! | `worker::publish`       | inside a batch commit, before its publish    |
//! | `worker::swap`          | on a hot-swap request, before any mutation   |
//!
//! A panic at `worker::poll`, `worker::batch` or `worker::before_commit`
//! kills the worker thread (exercising supervisor restart: the inflight
//! batch is requeued and the replacement drains the queue); a panic at
//! `worker::apply` is caught and exercises batch retry and quarantine; a
//! panic at `worker::checkpoint` poisons the shard (exercising the typed
//! [`crate::EngineError::ShardPoisoned`] query path); a delay at
//! `worker::batch` throttles a shard's drain rate (exercising a producer
//! blocked on a full queue); a panic at `worker::swap` kills the worker
//! *during a scheme hot-swap* with the swap request still pending — the
//! supervisor's replacement worker starts from the pre-swap snapshot and
//! redoes the swap, exercising the exactly-once swap protocol of
//! [`crate::IngestEngine::swap_backend`]; a delay at `worker::publish`
//! holds back a commit's snapshot publication, exercising that `flush`
//! waits for it. Without the feature every hook compiles to nothing.
//!
//! The injector is **engine-scoped**, not process-global: every engine owns
//! its own registry (shared with its workers), so concurrently running
//! engines — and concurrently running tests — never interfere.

use std::sync::{Arc, Mutex};
#[cfg(feature = "failpoints")]
use std::time::Duration;

use crate::error::EngineError;

// ---------------------------------------------------------------------------
// Fault injection (failpoints feature)
// ---------------------------------------------------------------------------

/// What a programmed failpoint does when it fires.
#[cfg(feature = "failpoints")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a message naming the failpoint. On a worker path the
    /// panic is either caught (batch isolation) or kills the worker thread
    /// (supervisor restart), depending on the point.
    Panic,
    /// Sleep for the given duration, simulating a slow shard. Used to drive
    /// overload deterministically: delaying `worker::batch` pins a shard's
    /// drain rate so an offered stream exceeds it by a known factor.
    Delay(Duration),
    /// Return [`EngineError::FaultInjected`] from the one failpoint on a
    /// fallible path, `engine::ingest`. Ignored at infallible points.
    Error,
}

/// A deterministic schedule for one failpoint: *which hits* fire.
///
/// Hits are counted per failpoint name (including the `@shard` suffix if
/// one was used). The plan skips the first `skip` hits, then fires on the
/// next `times` hits, then disarms.
#[cfg(feature = "failpoints")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    action: FaultAction,
    skip: u64,
    times: u64,
}

#[cfg(feature = "failpoints")]
impl FaultPlan {
    /// A plan that panics on every hit (narrow it with [`FaultPlan::on_hit`]
    /// / [`FaultPlan::after`] / [`FaultPlan::times`]).
    pub fn panic() -> Self {
        FaultPlan {
            action: FaultAction::Panic,
            skip: 0,
            times: u64::MAX,
        }
    }

    /// A plan that delays every hit by `duration`.
    pub fn delay(duration: Duration) -> Self {
        FaultPlan {
            action: FaultAction::Delay(duration),
            skip: 0,
            times: u64::MAX,
        }
    }

    /// A plan that makes fallible failpoints return
    /// [`EngineError::FaultInjected`] on every hit.
    pub fn error() -> Self {
        FaultPlan {
            action: FaultAction::Error,
            skip: 0,
            times: u64::MAX,
        }
    }

    /// Fires exactly once, on the `k`-th hit (1-based).
    pub fn on_hit(mut self, k: u64) -> Self {
        self.skip = k.saturating_sub(1);
        self.times = 1;
        self
    }

    /// Skips the first `k` hits before the plan can fire.
    pub fn after(mut self, k: u64) -> Self {
        self.skip = k;
        self
    }

    /// Fires on at most `n` hits (after any skipped ones), then disarms.
    pub fn times(mut self, n: u64) -> Self {
        self.times = n;
        self
    }
}

#[cfg(feature = "failpoints")]
#[derive(Debug)]
struct PointState {
    plan: FaultPlan,
    hits: u64,
    fired: u64,
}

#[cfg(feature = "failpoints")]
impl PointState {
    fn poll(&mut self) -> Option<FaultAction> {
        self.hits += 1;
        if self.hits <= self.plan.skip || self.fired >= self.plan.times {
            return None;
        }
        self.fired += 1;
        Some(self.plan.action)
    }
}

#[cfg(feature = "failpoints")]
#[derive(Debug, Default)]
struct Registry {
    armed: std::sync::atomic::AtomicBool,
    points: Mutex<std::collections::HashMap<String, PointState>>,
}

/// Handle to an engine's fault-injection registry.
///
/// Cloning is cheap and every clone programs the same registry; the engine
/// hands clones to its shard workers so failpoints fire on worker threads
/// too. Without the `failpoints` cargo feature this is a zero-sized no-op:
/// hooks compile away and nothing can be programmed.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    #[cfg(feature = "failpoints")]
    registry: Arc<Registry>,
}

impl FaultInjector {
    /// Creates an empty injector (no failpoints programmed).
    pub fn new() -> Self {
        FaultInjector::default()
    }
}

#[cfg(feature = "failpoints")]
impl FaultInjector {
    /// Programs `name` with `plan`, replacing any previous program and
    /// resetting its hit counter. Scope a program to one shard by suffixing
    /// the shard index: `"worker::apply@0"`.
    ///
    /// # Example: surviving a worker death
    ///
    /// Kill one shard's worker mid-stream and watch the engine recover —
    /// the supervisor re-forks the worker, which resumes from the shard's
    /// committed snapshot and surviving queue, and the answers come out as
    /// if nothing happened:
    ///
    /// ```
    /// use opthash_engine::{EngineConfig, FaultPlan, IngestEngine};
    /// use opthash_sketch::CountMinSketch;
    /// use opthash_stream::StreamElement;
    ///
    /// let mut engine = IngestEngine::new(
    ///     CountMinSketch::new(256, 4, 1),
    ///     EngineConfig::with_shards(2).batch_capacity(16),
    /// );
    /// // Shard 0's worker dies on its 5th event-loop iteration.
    /// engine
    ///     .fault_injector()
    ///     .program("worker::poll@0", FaultPlan::panic().on_hit(5));
    ///
    /// for id in 0..10_000u64 {
    ///     engine.ingest(&StreamElement::without_features(id % 50))?;
    /// }
    /// // Count-Min never under-counts: 200 arrivals of each id survived
    /// // the crash (count-min may over-count on collisions, never under).
    /// assert!(engine.query_synced(&StreamElement::without_features(7u64))? >= 200.0);
    /// // The recovery is visible, not silent.
    /// assert!(engine.fault_log().worker_restarts() >= 1);
    /// assert_eq!(engine.stats().unaccounted_mass(), 0);
    /// # Ok::<(), opthash_engine::EngineError>(())
    /// ```
    pub fn program(&self, name: &str, plan: FaultPlan) {
        let mut points = self.registry.points.lock().expect("failpoint registry");
        points.insert(
            name.to_owned(),
            PointState {
                plan,
                hits: 0,
                fired: 0,
            },
        );
        self.registry
            .armed
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// Removes every programmed failpoint.
    pub fn clear(&self) {
        let mut points = self.registry.points.lock().expect("failpoint registry");
        points.clear();
        self.registry
            .armed
            .store(false, std::sync::atomic::Ordering::Release);
    }

    /// Number of times the failpoint `name` has been hit (programmed points
    /// only; an unprogrammed name reports 0).
    pub fn hits(&self, name: &str) -> u64 {
        let points = self.registry.points.lock().expect("failpoint registry");
        points.get(name).map_or(0, |p| p.hits)
    }

    fn fire(&self, name: &'static str, shard: Option<usize>) -> Option<FaultAction> {
        if !self
            .registry
            .armed
            .load(std::sync::atomic::Ordering::Acquire)
        {
            return None;
        }
        let mut points = self.registry.points.lock().expect("failpoint registry");
        if let Some(shard) = shard {
            let scoped = format!("{name}@{shard}");
            if let Some(state) = points.get_mut(&scoped) {
                if let Some(action) = state.poll() {
                    return Some(action);
                }
            }
        }
        points.get_mut(name).and_then(PointState::poll)
    }

    /// Consults the failpoint on an infallible path: may panic or delay.
    /// The `Error` action is ignored here.
    pub(crate) fn hit_at(&self, name: &'static str, shard: Option<usize>) {
        match self.fire(name, shard) {
            Some(FaultAction::Panic) => panic!("failpoint '{name}' fired: injected panic"),
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(FaultAction::Error) | None => {}
        }
    }

    /// Consults the failpoint on a fallible path: may panic, delay, or
    /// return [`EngineError::FaultInjected`].
    pub(crate) fn hit_result_at(
        &self,
        name: &'static str,
        shard: Option<usize>,
    ) -> Result<(), EngineError> {
        match self.fire(name, shard) {
            Some(FaultAction::Panic) => panic!("failpoint '{name}' fired: injected panic"),
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            Some(FaultAction::Error) => Err(EngineError::FaultInjected { failpoint: name }),
            None => Ok(()),
        }
    }
}

#[cfg(not(feature = "failpoints"))]
impl FaultInjector {
    #[inline(always)]
    pub(crate) fn hit_at(&self, _name: &'static str, _shard: Option<usize>) {}

    #[inline(always)]
    pub(crate) fn hit_result_at(
        &self,
        _name: &'static str,
        _shard: Option<usize>,
    ) -> Result<(), EngineError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Fault log
// ---------------------------------------------------------------------------

/// One robustness event the engine survived (or, for
/// [`FaultEvent::ShardPoisoned`], detected and fenced off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultEvent {
    /// A batch panicked mid-apply (or its worker died before committing
    /// it); the working copy was dropped and the batch requeued for retry
    /// against the shard's committed snapshot.
    BatchPanicked {
        /// Shard whose batch panicked.
        shard: usize,
        /// 1-based application attempt that failed.
        attempt: u32,
        /// Count mass carried by the batch.
        mass: u64,
    },
    /// A batch was quarantined — set aside, fully accounted, retrievable
    /// via [`crate::IngestEngine::quarantined`] — because it exhausted its
    /// application attempts, or because it was dispatched to a poisoned
    /// shard.
    BatchQuarantined {
        /// Shard that quarantined the batch.
        shard: usize,
        /// Count mass set aside with the batch.
        mass: u64,
        /// Number of pre-aggregated updates in the batch.
        updates: usize,
    },
    /// A shard worker thread died; the supervisor re-forked a replacement,
    /// which resumes from the shard's committed snapshot and surviving
    /// queue.
    WorkerRestarted {
        /// Shard whose worker was restarted.
        shard: usize,
        /// Generation of the replacement worker (the initial worker is
        /// generation 0).
        generation: u32,
    },
    /// A panic struck inside the shard's commit critical section; the
    /// snapshot may be half-written, so the shard is fenced off and queries
    /// return [`crate::EngineError::ShardPoisoned`].
    ShardPoisoned {
        /// The poisoned shard.
        shard: usize,
    },
}

/// Append-only record of the robustness events an engine has handled.
///
/// Snapshot it with [`crate::IngestEngine::fault_log`]; a healthy run has
/// an empty log, and every recovery the engine performs is visible here
/// rather than happening silently.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
}

impl FaultLog {
    /// `true` if no fault has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Number of worker restarts recorded.
    pub fn worker_restarts(&self) -> usize {
        self.count(|e| matches!(e, FaultEvent::WorkerRestarted { .. }))
    }

    /// Number of batch panics recorded (each failed application attempt).
    pub fn batch_panics(&self) -> usize {
        self.count(|e| matches!(e, FaultEvent::BatchPanicked { .. }))
    }

    /// Number of batches quarantined.
    pub fn quarantines(&self) -> usize {
        self.count(|e| matches!(e, FaultEvent::BatchQuarantined { .. }))
    }

    /// Number of shards fenced off as poisoned.
    pub fn poisonings(&self) -> usize {
        self.count(|e| matches!(e, FaultEvent::ShardPoisoned { .. }))
    }

    fn count(&self, pred: impl Fn(&FaultEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    pub(crate) fn record(&mut self, event: FaultEvent) {
        self.events.push(event);
    }
}

/// Fault log shared between the engine front-end and its workers.
pub(crate) type SharedFaultLog = Arc<Mutex<FaultLog>>;

pub(crate) fn record(log: &SharedFaultLog, event: FaultEvent) {
    log.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .record(event);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_log_counts_by_kind() {
        let mut log = FaultLog::default();
        assert!(log.is_empty());
        log.record(FaultEvent::BatchPanicked {
            shard: 0,
            attempt: 1,
            mass: 10,
        });
        log.record(FaultEvent::WorkerRestarted {
            shard: 0,
            generation: 1,
        });
        log.record(FaultEvent::BatchQuarantined {
            shard: 1,
            mass: 7,
            updates: 3,
        });
        assert_eq!(log.len(), 3);
        assert_eq!(log.batch_panics(), 1);
        assert_eq!(log.worker_restarts(), 1);
        assert_eq!(log.quarantines(), 1);
        assert_eq!(log.poisonings(), 0);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn plans_fire_deterministically() {
        let injector = FaultInjector::new();
        injector.program("p", FaultPlan::error().on_hit(3));
        assert!(injector.hit_result_at("p", None).is_ok());
        assert!(injector.hit_result_at("p", None).is_ok());
        assert!(injector.hit_result_at("p", None).is_err());
        assert!(injector.hit_result_at("p", None).is_ok());
        assert_eq!(injector.hits("p"), 4);

        // Shard-scoped programs outrank unscoped ones.
        injector.program("q@1", FaultPlan::error());
        assert!(injector.hit_result_at("q", Some(0)).is_ok());
        assert!(injector.hit_result_at("q", Some(1)).is_err());
        injector.clear();
        assert!(injector.hit_result_at("q", Some(1)).is_ok());
    }
}
