//! # opthash-engine
//!
//! An always-on, sharded, fault-isolated ingestion engine that lets the
//! workspace's linear frequency estimators — the randomized baselines of
//! `opthash-sketch` *and* the paper's learned [`opthash::OptHash`] — absorb
//! heavy update traffic through one interface:
//!
//! * [`SketchBackend`] — weighted update / point query / fork / merge,
//!   implemented by [`opthash_sketch::CountMinSketch`],
//!   [`opthash_sketch::CountSketch`], [`opthash_sketch::LearnedCountMin`]
//!   and [`opthash::OptHash`];
//! * [`IngestEngine`] — hash-partitions arrivals by element ID across `N`
//!   shards, pre-aggregates each shard's batch (duplicates collapse into one
//!   weighted update — on the Zipfian streams the paper studies most
//!   arrivals are duplicates), and streams full batches through bounded
//!   queues to persistent per-shard worker threads, so application overlaps
//!   ingestion. Every read answers from one published view — the scheme's
//!   base plus each shard's committed delta — in two flavours: wait-free
//!   epoch-stamped snapshot queries ([`IngestEngine::query`],
//!   [`SnapshotReader`]) that never touch the flush barrier, and
//!   barrier-synced queries ([`IngestEngine::query_synced`]) that flush,
//!   wait for every shard to drain, and then read the same view.
//!
//! The engine is *exact* for the linear backends: queries of a sharded
//! engine equal those of the same backend fed sequentially (see the
//! [`SketchBackend`] docs for the precise contract).
//!
//! Shard workers are stateless. For each batch a worker copies its shard's
//! committed snapshot, applies the batch to the copy, and commits and
//! publishes the copy as the shard's new snapshot, which is what both read
//! paths see.
//!
//! ## Robustness model
//!
//! The engine treats overload and partial failure as ordinary inputs, not
//! panics, and upholds one invariant throughout: **no admitted arrival is
//! ever silently lost.** [`EngineStats::unaccounted_mass`] locates every
//! admitted unit as applied, buffered, queued or quarantined, and reads 0.
//!
//! * **Backpressure** — when a shard's bounded queue is full, the
//!   ingesting thread blocks until the worker drains it, supervising while
//!   it waits. A shard buffer is dispatched the moment it reaches its batch
//!   capacity, so it never grows past it.
//! * **Panic isolation** — a panic inside batch application is confined to
//!   the worker's copy of the snapshot, which is dropped; the batch is
//!   retried and, after three attempts, quarantined as a poison pill
//!   ([`IngestEngine::quarantined`] exposes its updates). A batch sent to
//!   a poisoned shard is quarantined the same way.
//! * **Supervision** — a worker death is detected by the engine, which
//!   requeues the inflight batch, re-forks a worker that resumes from the
//!   shard's committed snapshot and surviving queue, and records a
//!   [`FaultEvent::WorkerRestarted`] in the [`FaultLog`].
//! * **Fault injection** — with the `failpoints` cargo feature, named
//!   failpoints along the ingest/apply/commit paths can be programmed
//!   per engine ([`IngestEngine::fault_injector`]) to panic, delay, or
//!   error deterministically; see [`fault`] for the failpoint table. The
//!   feature costs nothing when disabled.
//!
//! ## Online re-training
//!
//! Backends can be replaced *while the engine runs*:
//! [`IngestEngine::swap_backend`] drains every shard, retires each shard's
//! accumulated delta through the fork/merge machinery (the retired base —
//! with every count it absorbed — is returned to the caller), restarts
//! every shard from one blank fork of the new base and publishes the new
//! scheme to readers in one step, without stopping a single worker thread
//! and without losing a unit of mass. [`Retrainer`] builds the full
//! re-training loop on top for [`opthash::OptHash`]: a sliding window of
//! recent arrivals, periodic warm-started re-solves (by default on a
//! background thread), and versioned [`TrainedScheme`] publication.
//!
//! ```
//! use opthash_engine::{EngineConfig, IngestEngine};
//! use opthash_sketch::CountMinSketch;
//! use opthash_stream::StreamElement;
//!
//! let mut engine = IngestEngine::new(
//!     CountMinSketch::new(1024, 4, 7),
//!     EngineConfig::with_shards(4),
//! );
//! for id in 0..1_000u64 {
//!     engine.ingest(&StreamElement::without_features(id % 10))?;
//! }
//! // Hot-swap in a wider sketch mid-stream. The old sketch comes back
//! // holding all 1_000 arrivals; the engine continues on the new one.
//! let retired = engine.swap_backend(CountMinSketch::new(4096, 4, 11))?;
//! assert_eq!(retired.query(5u64.into()), 100);
//! assert_eq!(engine.scheme_version(), 1);
//! engine.ingest(&StreamElement::without_features(5u64))?;
//! assert_eq!(engine.query_synced(&StreamElement::without_features(5u64))?, 1.0);
//! assert_eq!(engine.stats().unaccounted_mass(), 0);
//! # Ok::<(), opthash_engine::EngineError>(())
//! ```
//!
//! Wait-free reads: [`IngestEngine::query`] answers from the latest
//! published snapshot set without waiting on ingestion, stamped with the
//! per-shard epochs and mass it covers, and [`SnapshotReader`] hands that
//! capability to concurrent reader threads:
//!
//! ```
//! use opthash_engine::{EngineConfig, IngestEngine};
//! use opthash_sketch::CountMinSketch;
//! use opthash_stream::StreamElement;
//!
//! let mut engine = IngestEngine::new(
//!     CountMinSketch::new(1024, 4, 7),
//!     EngineConfig::with_shards(2),
//! );
//! for id in 0..5_000u64 {
//!     engine.ingest(&StreamElement::without_features(id % 50))?;
//! }
//! engine.flush()?;
//! // `query` needs no `&mut` and cannot block behind the flush barrier.
//! let answer = engine.query(&StreamElement::without_features(7u64));
//! assert_eq!(answer.estimate, 100.0);
//! assert_eq!(answer.stamp.scheme_version, 0);
//! assert_eq!(answer.stamp.mass_accounted, 5_000); // post-flush: everything
//! // A cloneable reader serves other threads, outliving even the engine.
//! let reader = engine.snapshot_reader();
//! let from_thread = std::thread::spawn(move || {
//!     reader.query(&StreamElement::without_features(7u64)).estimate
//! })
//! .join()
//! .unwrap();
//! assert_eq!(from_thread, 100.0);
//! # Ok::<(), opthash_engine::EngineError>(())
//! ```
//!
//! ```
//! use opthash_engine::{EngineConfig, IngestEngine};
//! use opthash_sketch::CountMinSketch;
//! use opthash_stream::StreamElement;
//!
//! let sketch = CountMinSketch::new(1024, 4, 7);
//! let mut engine = IngestEngine::new(sketch, EngineConfig::with_shards(4));
//! for id in 0..10_000u64 {
//!     engine.ingest(&StreamElement::without_features(id % 100))?;
//! }
//! let hot = engine.query_synced(&StreamElement::without_features(5u64))?;
//! assert_eq!(hot, 100.0);
//! // The engine aggregated the 100 duplicate arrivals of each ID.
//! assert!(engine.stats().aggregation_factor() > 1.0);
//! # Ok::<(), opthash_engine::EngineError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod backend;
pub mod engine;
pub mod error;
pub mod fault;
mod queue;
pub mod retrain;
pub mod snapshot;
mod worker;

pub use backend::SketchBackend;
pub use engine::{EngineConfig, EngineStats, IngestEngine};
pub use error::EngineError;
#[cfg(feature = "failpoints")]
pub use fault::{FaultAction, FaultPlan};
pub use fault::{FaultEvent, FaultInjector, FaultLog};
pub use retrain::{RetrainConfig, RetrainStats, Retrainer, TrainedScheme};
pub use snapshot::{EpochStamp, SnapshotEstimate, SnapshotReader};
