//! Root helper crate for the `opthash` reproduction workspace.
//!
//! This crate exists so that the repository-level `examples/` and `tests/`
//! directories can exercise the public API of every workspace crate from a
//! single place. It re-exports the crates so examples can write
//! `use opthash_repro::prelude::*;`.
//!
//! ```
//! use opthash_repro::prelude::*;
//!
//! // A baseline sketch behind the sharded ingest engine.
//! let sketch = CountMinSketch::new(256, 4, 1);
//! let mut engine = IngestEngine::new(sketch, EngineConfig::with_shards(2));
//! for id in 0..1_000u64 {
//!     engine.ingest(&StreamElement::without_features(id % 10))?;
//! }
//! assert_eq!(engine.query_synced(&StreamElement::without_features(3u64))?, 100.0);
//! # Ok::<(), EngineError>(())
//! ```

pub use opthash;
pub use opthash_datagen as datagen;
pub use opthash_engine as engine;
pub use opthash_ml as ml;
pub use opthash_registry as registry;
pub use opthash_sketch as sketch;
pub use opthash_solver as solver;
pub use opthash_stream as stream;

/// Convenience re-exports of the most commonly used types across the
/// workspace, mirroring what a downstream user of the published crates would
/// import.
pub mod prelude {
    pub use opthash::{
        AdaptiveOptHash, EstimatorStats, OptHash, OptHashBuilder, OptHashConfig, SolverKind,
    };
    pub use opthash_datagen::drift::{DriftConfig, DriftingWorkload};
    pub use opthash_datagen::groups::{GroupConfig, GroupDataset};
    pub use opthash_datagen::querylog::{QueryLogConfig, QueryLogDataset};
    pub use opthash_engine::{
        EngineConfig, EngineError, EngineStats, EpochStamp, FaultEvent, FaultInjector, FaultLog,
        IngestEngine, RetrainConfig, RetrainStats, Retrainer, SketchBackend, SnapshotEstimate,
        SnapshotReader, TrainedScheme,
    };
    #[cfg(feature = "failpoints")]
    pub use opthash_engine::{FaultAction, FaultPlan};
    pub use opthash_ml::ClassifierKind;
    pub use opthash_registry::{
        BackendSpec, GovernorOutcome, RegistryConfig, RegistryError, RegistryStats, SketchRegistry,
        SketchServer, TenantId, TenantReport,
    };
    pub use opthash_sketch::{
        BloomFilter, CountMinSketch, CountSketch, LearnedCountMin, MisraGries,
    };
    pub use opthash_solver::{
        BcdConfig, BcdSolver, ExactConfig, HashingProblem, HashingSolution, SolverStats,
    };
    pub use opthash_stream::{
        ElementId, ErrorMetrics, Features, FrequencyEstimator, FrequencyVector, SpaceBudget,
        Stream, StreamElement, StreamPrefix,
    };
}
