//! Online re-training with atomic hot-swap.
//!
//! The paper trains the learned hashing scheme once on a stream prefix and
//! serves it forever; production streams drift. [`Retrainer`] wraps an
//! [`IngestEngine`] over [`opthash::OptHash`] and keeps the scheme current:
//!
//! 1. it keeps a **sliding window** of the last [`RetrainConfig::window`]
//!    arrival IDs in a ring, one store per arrival, and counts it only when
//!    a re-train is scheduled, on the thread that runs the solve;
//! 2. every [`RetrainConfig::retrain_interval`] arrivals it re-solves the
//!    bucketing on the window prefix via [`opthash::OptHash::retrain`] —
//!    one sort when the window holds no more distinct counts than buckets
//!    (the exact equal-count shortcut), otherwise BCD **warm-started** from
//!    the incumbent assignment when the solver config carries `warm_start`
//!    — and retrains the classifier on the refreshed assignment, by default
//!    on a background thread so ingest never stalls behind a solve. The
//!    window prefix lists IDs in ascending order, so identical arrivals
//!    train identical schemes;
//! 3. it publishes the result as a **versioned [`TrainedScheme`] `Arc`**
//!    and hot-swaps it into the live engine via
//!    [`IngestEngine::swap_backend`]: workers drain their queues, retire
//!    their pre-swap deltas through the fork/merge machinery, and restart
//!    from a blank fork of the new scheme — no worker thread is stopped,
//!    and [`crate::EngineStats::unaccounted_mass`] stays 0 across every
//!    swap.
//!
//! Like every [`OptHash`] build, the new scheme's counters are seeded from
//! its training prefix, here the window, so post-swap queries answer
//! *recent* traffic — exactly the estimate a drifting workload wants —
//! while the retired scheme (with every count it accumulated) is handed
//! back through [`Retrainer::take_retired`].

use crate::engine::{EngineConfig, EngineStats, IngestEngine};
use crate::error::EngineError;
use opthash::solver::SolverStats;
use opthash::OptHash;
use opthash_stream::{ElementId, StreamElement, StreamPrefix};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Configuration of a [`Retrainer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrainConfig {
    /// Sliding-window length in arrivals; the re-trainer's training prefix
    /// is the exact frequency vector of the last `window` arrivals.
    pub window: usize,
    /// Re-train (and hot-swap) every `retrain_interval` arrivals.
    pub retrain_interval: usize,
    /// Skip a scheduled re-train while the window holds fewer distinct
    /// elements than this (a scheme solved on a near-empty window would be
    /// worse than the incumbent). The window is counted where the solve
    /// runs, so in background mode the skip is decided when the job lands.
    pub min_distinct: usize,
    /// Solve on a background thread (`true`, the default) so ingest never
    /// stalls behind training; the swap happens on the next arrival after
    /// the solve completes, so *when* it lands depends on timing. `false`
    /// trains synchronously inside [`Retrainer::ingest`], which makes the
    /// whole run reproducible; tests and benches use it with
    /// [`Retrainer::retrain_now`]. Either way a solve is a deterministic
    /// function of the window.
    pub background: bool,
}

impl Default for RetrainConfig {
    fn default() -> Self {
        RetrainConfig {
            window: 32_768,
            retrain_interval: 16_384,
            min_distinct: 64,
            background: true,
        }
    }
}

/// A published scheme version: the trained estimator plus its monotone
/// version number. Shared by `Arc` so readers can hold a scheme while the
/// re-trainer publishes the next one.
#[derive(Debug, Clone)]
pub struct TrainedScheme {
    /// Monotone version; 0 is the scheme the re-trainer started with.
    pub version: u64,
    /// The trained estimator, counters seeded from the training window at
    /// publish time.
    pub estimator: OptHash,
}

impl TrainedScheme {
    /// The solver statistics of this scheme's solve (iterations, restarts,
    /// cost trajectory, warm-start provenance).
    pub fn solver_stats(&self) -> &SolverStats {
        &self.estimator.solution().stats
    }
}

/// Counters describing the re-trainer's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetrainStats {
    /// Completed re-trains (successful solves, whether or not yet swapped).
    pub retrains: u64,
    /// Completed hot-swaps into the engine.
    pub swaps: u64,
    /// Scheduled re-trains skipped because the window held fewer than
    /// [`RetrainConfig::min_distinct`] distinct elements; in background
    /// mode a skip is counted when its job lands.
    pub skipped: u64,
    /// Background trainings that panicked; the incumbent scheme stayed
    /// live.
    pub failed: u64,
}

/// A live ingest engine that re-trains its [`OptHash`] scheme online.
pub struct Retrainer {
    engine: IngestEngine<OptHash>,
    config: RetrainConfig,
    /// The last `window` arrival IDs; once full, `next` is the oldest slot.
    ring: Vec<ElementId>,
    next: usize,
    /// First-seen element of each featured ID (featureless arrivals never
    /// touch it), pruned to the ring's IDs past `2 × window` entries.
    featured: HashMap<ElementId, StreamElement>,
    since_retrain: usize,
    scheme: Arc<TrainedScheme>,
    /// In-flight background training; it yields `None` for a skip.
    pending: Option<JoinHandle<Option<OptHash>>>,
    /// Retired backends from completed swaps, oldest first, until the
    /// caller collects them.
    retired: Vec<OptHash>,
    stats: RetrainStats,
}

impl Retrainer {
    /// Wraps `initial` (the scheme trained on the bootstrap prefix, version
    /// 0) in an ingest engine and the re-training loop.
    pub fn new(initial: OptHash, engine: EngineConfig, config: RetrainConfig) -> Self {
        assert!(config.window > 0, "need a non-empty training window");
        assert!(
            config.retrain_interval > 0,
            "need a positive retrain interval"
        );
        let scheme = Arc::new(TrainedScheme {
            version: 0,
            estimator: initial.clone(),
        });
        Retrainer {
            engine: IngestEngine::new(initial, engine),
            config,
            ring: Vec::with_capacity(config.window),
            next: 0,
            featured: HashMap::new(),
            since_retrain: 0,
            scheme,
            pending: None,
            retired: Vec::new(),
            stats: RetrainStats::default(),
        }
    }

    /// The re-trainer's configuration.
    pub fn config(&self) -> &RetrainConfig {
        &self.config
    }

    /// The currently published scheme (shared; cheap to clone).
    pub fn scheme(&self) -> Arc<TrainedScheme> {
        Arc::clone(&self.scheme)
    }

    /// Version of the scheme currently live in the engine.
    pub fn scheme_version(&self) -> u64 {
        self.scheme.version
    }

    /// Re-training activity counters.
    pub fn retrain_stats(&self) -> RetrainStats {
        self.stats
    }

    /// The wrapped engine's conservation/robustness counters.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Retired backends from completed swaps (each holds every count it
    /// accumulated while live), oldest first. A swap that reported a
    /// poisoned shard returns no retired backend.
    pub fn take_retired(&mut self) -> Vec<OptHash> {
        std::mem::take(&mut self.retired)
    }

    /// Ingests one arrival: updates the engine, the sliding window, and the
    /// re-training schedule (collecting a finished background solve and
    /// hot-swapping it when one is ready).
    pub fn ingest(&mut self, element: &StreamElement) -> Result<(), EngineError> {
        self.engine.ingest(element)?;
        self.observe(element);
        self.since_retrain += 1;
        self.poll()?;
        if self.since_retrain >= self.config.retrain_interval && self.pending.is_none() {
            self.since_retrain = 0;
            let job = self.retrain_job();
            if self.config.background {
                // The ring's copy is all the ingest thread pays; the count
                // and the `min_distinct` check run with the solve.
                self.pending = Some(thread::spawn(job));
            } else {
                self.settle(Ok(job()))?;
            }
        }
        Ok(())
    }

    /// Ingests a slice of arrivals in order.
    pub fn ingest_slice(&mut self, elements: &[StreamElement]) -> Result<(), EngineError> {
        for element in elements {
            self.ingest(element)?;
        }
        Ok(())
    }

    /// Collects a finished background training (without blocking) and
    /// hot-swaps the new scheme in. Called automatically by
    /// [`Retrainer::ingest`]; call directly to drain a solve while idle.
    pub fn poll(&mut self) -> Result<(), EngineError> {
        if self.pending.as_ref().is_some_and(JoinHandle::is_finished) {
            self.join_pending()?;
        }
        Ok(())
    }

    /// Forces a synchronous re-train on the current window and hot-swaps
    /// the result, regardless of the schedule. Any in-flight background
    /// solve is awaited and published first. Returns `false` (without
    /// training) if the window holds fewer than
    /// [`RetrainConfig::min_distinct`] distinct elements.
    pub fn retrain_now(&mut self) -> Result<bool, EngineError> {
        self.join_pending()?;
        let trained = self.retrain_job()();
        if trained.is_some() {
            self.since_retrain = 0;
        }
        self.settle(Ok(trained))
    }

    /// Queries the live engine (flushing so the answer covers every
    /// admitted arrival).
    pub fn query(&mut self, element: &StreamElement) -> Result<f64, EngineError> {
        self.engine.query_synced(element)
    }

    /// Awaits any in-flight solve, publishes it, and finishes the engine,
    /// returning the final live estimator.
    pub fn finish(mut self) -> Result<OptHash, EngineError> {
        self.join_pending()?;
        self.engine.finish()
    }

    /// Slides the window over one arrival.
    fn observe(&mut self, element: &StreamElement) {
        if self.ring.len() < self.config.window {
            self.ring.push(element.id);
        } else {
            self.ring[self.next] = element.id;
            self.next += 1;
            if self.next == self.ring.len() {
                self.next = 0;
            }
        }
        if !element.features.is_empty() {
            self.featured
                .entry(element.id)
                .or_insert_with(|| element.clone());
            if self.featured.len() > self.config.window.saturating_mul(2) {
                let live: HashSet<ElementId> = self.ring.iter().copied().collect();
                self.featured.retain(|id, _| live.contains(id));
            }
        }
    }

    /// The next re-train as a job that owns copies of its inputs; it yields
    /// `None` when the window holds fewer than `min_distinct` distinct IDs.
    fn retrain_job(&self) -> impl FnOnce() -> Option<OptHash> + Send + 'static {
        let scheme = Arc::clone(&self.scheme);
        let (ids, featured) = (self.ring.clone(), self.featured.clone());
        let min_distinct = self.config.min_distinct;
        move || {
            let prefix = window_prefix(ids, &featured);
            (prefix.distinct_len() >= min_distinct).then(|| scheme.estimator.retrain(&prefix))
        }
    }

    /// Awaits the in-flight background job, if any, and settles it.
    fn join_pending(&mut self) -> Result<(), EngineError> {
        if let Some(handle) = self.pending.take() {
            self.settle(handle.join())?;
        }
        Ok(())
    }

    /// Counts a finished re-train and publishes the scheme it trained, if
    /// any; returns whether it trained one.
    fn settle(&mut self, outcome: thread::Result<Option<OptHash>>) -> Result<bool, EngineError> {
        match outcome {
            Ok(Some(estimator)) => {
                self.stats.retrains += 1;
                self.publish(estimator)?;
                return Ok(true);
            }
            Ok(None) => self.stats.skipped += 1,
            Err(_) => self.stats.failed += 1,
        }
        Ok(false)
    }

    /// Publishes a freshly trained estimator as the next scheme version and
    /// hot-swaps it in. The engine serves it even when the swap reports a
    /// poisoned shard, so it is adopted either way.
    fn publish(&mut self, estimator: OptHash) -> Result<(), EngineError> {
        self.scheme = Arc::new(TrainedScheme {
            version: self.scheme.version + 1,
            estimator,
        });
        self.stats.swaps += 1;
        let retired = self.engine.swap_backend(self.scheme.estimator.clone())?;
        self.retired.push(retired);
        Ok(())
    }
}

/// The window's exact frequency vector as a training prefix, in ascending
/// `ElementId` order: sorting the window's IDs makes each run of equal IDs
/// one `(element, count)` pair. Both BCD's initial assignment and the
/// equal-count shortcut's tie order follow the prefix order, so the sort is
/// also what makes a re-solve a function of the window alone.
fn window_prefix(
    mut ids: Vec<ElementId>,
    featured: &HashMap<ElementId, StreamElement>,
) -> StreamPrefix {
    ids.sort_unstable();
    let pairs = ids
        .chunk_by(|a, b| a == b)
        .map(|run| {
            let element = featured
                .get(&run[0])
                .cloned()
                .unwrap_or_else(|| StreamElement::without_features(run[0]));
            (element, run.len() as u64)
        })
        .collect();
    StreamPrefix::from_counts(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SketchBackend;
    use opthash::{OptHashBuilder, SolverKind};
    use opthash_stream::Stream;

    fn initial_scheme() -> OptHash {
        let arrivals: Vec<StreamElement> = (0..200u64)
            .map(|i| StreamElement::without_features(i % 8))
            .collect();
        OptHashBuilder::new(4)
            .lambda(1.0)
            .solver(SolverKind::Bcd(
                opthash::solver::BcdConfig::default().with_warm_start(),
            ))
            .train(&StreamPrefix::from_stream(Stream::from_arrivals(arrivals)))
    }

    #[test]
    fn retrains_and_swaps_in_worker_mode() {
        let mut retrainer = Retrainer::new(
            initial_scheme(),
            EngineConfig::with_shards(2),
            RetrainConfig {
                window: 512,
                retrain_interval: 256,
                min_distinct: 4,
                background: false,
            },
        );
        // Phase 1: ids 0..8 hot; phase 2: ids 100..108 hot.
        for i in 0..600u64 {
            retrainer
                .ingest(&StreamElement::without_features(i % 8))
                .unwrap();
        }
        let v_after_phase1 = retrainer.scheme_version();
        assert!(v_after_phase1 >= 1, "interval retrains must have fired");
        for i in 0..600u64 {
            retrainer
                .ingest(&StreamElement::without_features(100 + i % 8))
                .unwrap();
        }
        assert!(retrainer.scheme_version() > v_after_phase1);
        let stats = retrainer.engine_stats();
        assert_eq!(stats.unaccounted_mass(), 0, "mass conserved across swaps");
        // The live scheme now stores the drifted hot set.
        let hot = retrainer
            .query(&StreamElement::without_features(100u64))
            .unwrap();
        assert!(hot > 0.0, "drifted hot element must estimate positive");
        let retired = retrainer.take_retired();
        assert_eq!(retired.len() as u64, retrainer.retrain_stats().swaps);
        let final_est = retrainer.finish().unwrap();
        assert!(final_est.stored_elements() > 0);
    }

    #[test]
    fn background_training_publishes_on_poll() {
        let mut retrainer = Retrainer::new(
            initial_scheme(),
            EngineConfig::with_shards(2),
            RetrainConfig {
                window: 512,
                retrain_interval: 128,
                min_distinct: 4,
                background: true,
            },
        );
        for i in 0..4_000u64 {
            retrainer
                .ingest(&StreamElement::without_features(i % 16))
                .unwrap();
        }
        // Drain any still-pending solve deterministically.
        if retrainer.pending.is_some() {
            retrainer.retrain_now().unwrap();
        }
        assert!(retrainer.scheme_version() >= 1);
        assert_eq!(retrainer.engine_stats().unaccounted_mass(), 0);
        retrainer.finish().unwrap();
    }

    #[test]
    fn small_window_skips_scheduled_retrains() {
        let mut retrainer = Retrainer::new(
            initial_scheme(),
            EngineConfig::with_shards(1),
            RetrainConfig {
                window: 64,
                retrain_interval: 32,
                min_distinct: 1_000,
                background: false,
            },
        );
        for i in 0..200u64 {
            retrainer
                .ingest(&StreamElement::without_features(i % 4))
                .unwrap();
        }
        assert_eq!(retrainer.scheme_version(), 0);
        assert!(retrainer.retrain_stats().skipped > 0);
        assert!(!retrainer.retrain_now().unwrap());
    }

    #[test]
    fn window_slides_and_evicts() {
        let mut retrainer = Retrainer::new(
            initial_scheme(),
            EngineConfig::with_shards(1),
            RetrainConfig {
                window: 8,
                retrain_interval: 1_000_000,
                min_distinct: 1,
                background: false,
            },
        );
        for i in 0..32u64 {
            retrainer
                .ingest(&StreamElement::without_features(i))
                .unwrap();
        }
        assert_eq!(retrainer.ring.len(), 8);
        // Only the last 8 distinct IDs survive.
        let prefix = window_prefix(retrainer.ring.clone(), &retrainer.featured);
        assert_eq!(prefix.distinct_len(), 8);
        assert!(prefix.contains(ElementId(31)));
        assert!(!prefix.contains(ElementId(0)));
        retrainer.finish().unwrap();
    }

    /// A featured stream trains on each ID's features: the re-solve equals
    /// the incumbent retrained on a reference prefix that carries them, and
    /// the side map of featured elements stays bounded as IDs churn.
    #[test]
    fn featured_arrivals_train_with_their_features() {
        let featured = |id: u64| StreamElement::new(id, vec![(id % 7) as f64, (id % 3) as f64]);
        let boot: Vec<StreamElement> = (0..200u64).map(|i| featured(i % 20)).collect();
        let initial = OptHashBuilder::new(4)
            .lambda(0.5)
            .classifier(opthash::ml::ClassifierKind::Cart)
            .train(&StreamPrefix::from_stream(Stream::from_arrivals(boot)));
        let window = 64;
        let mut retrainer = Retrainer::new(
            initial,
            EngineConfig::with_shards(2),
            RetrainConfig {
                window,
                retrain_interval: 1_000_000,
                min_distinct: 1,
                background: false,
            },
        );
        let ids: Vec<u64> = (0..300u64).map(|i| (i * 7) % 40 + i / 100).collect();
        for &id in &ids {
            retrainer.ingest(&featured(id)).unwrap();
        }
        let before = retrainer.scheme();
        assert!(retrainer.retrain_now().unwrap());

        let mut counts = std::collections::BTreeMap::new();
        for &id in &ids[ids.len() - window..] {
            *counts.entry(id).or_insert(0u64) += 1;
        }
        let reference = StreamPrefix::from_counts(
            counts
                .into_iter()
                .map(|(id, count)| (featured(id), count))
                .collect(),
        );
        let expected = before.estimator.retrain(&reference);
        let live = retrainer.scheme();
        let solution = live.estimator.solution();
        assert_eq!(
            solution.objective.to_bits(),
            expected.solution().objective.to_bits()
        );
        assert_eq!(solution.assignment, expected.solution().assignment);
        for id in 0..100u64 {
            assert_eq!(
                SketchBackend::query(&live.estimator, &featured(id)).to_bits(),
                SketchBackend::query(&expected, &featured(id)).to_bits(),
                "id {id}"
            );
        }

        for id in 1_000..1_000 + 10 * window as u64 {
            retrainer.ingest(&featured(id)).unwrap();
            assert!(retrainer.featured.len() <= 2 * window);
        }
        retrainer.finish().unwrap();
    }

    /// In background mode the window is counted by the job, so a skip is
    /// counted when the job lands, and nothing is published or retired.
    #[test]
    fn background_skips_are_counted_when_the_job_lands() {
        let mut retrainer = Retrainer::new(
            initial_scheme(),
            EngineConfig::with_shards(1),
            RetrainConfig {
                window: 64,
                retrain_interval: 32,
                min_distinct: 1_000,
                background: true,
            },
        );
        for i in 0..32u64 {
            retrainer
                .ingest(&StreamElement::without_features(i % 4))
                .unwrap();
        }
        assert_eq!(retrainer.retrain_stats().skipped, 0, "the job is in flight");
        while retrainer
            .pending
            .as_ref()
            .is_some_and(|job| !job.is_finished())
        {
            std::thread::yield_now();
        }
        retrainer.poll().unwrap();
        assert!(retrainer.pending.is_none());
        let stats = retrainer.retrain_stats();
        assert_eq!((stats.skipped, stats.retrains, stats.swaps), (1, 0, 0));
        assert_eq!(retrainer.scheme_version(), 0);
        assert!(retrainer.take_retired().is_empty());
        retrainer.finish().unwrap();
    }

    /// A swap over a poisoned shard still makes the new scheme the one the
    /// engine serves, so the re-trainer must publish it too: its version
    /// and estimates are the engine's, not the retired scheme's.
    #[cfg(feature = "failpoints")]
    #[test]
    fn a_swap_over_a_poisoned_shard_adopts_the_served_scheme() {
        let mut retrainer = Retrainer::new(
            initial_scheme(),
            EngineConfig::with_shards(2).batch_capacity(8),
            RetrainConfig {
                window: 64,
                retrain_interval: 1_000_000,
                min_distinct: 1,
                background: false,
            },
        );
        // Shard 0 commits its first batch; its second commit panics and
        // poisons the shard.
        retrainer
            .engine
            .fault_injector()
            .program("worker::checkpoint@0", crate::FaultPlan::panic().on_hit(2));
        for id in (0..400u64).map(|i| i % 50) {
            match retrainer.ingest(&StreamElement::without_features(id)) {
                Ok(()) | Err(EngineError::ShardPoisoned { shard: 0 }) => {}
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert_eq!(
            retrainer.retrain_now().unwrap_err(),
            EngineError::ShardPoisoned { shard: 0 }
        );
        assert_eq!(
            retrainer.scheme_version(),
            retrainer.engine.snapshot_stamp().scheme_version
        );
        let scheme = retrainer.scheme();
        for id in 0..100u64 {
            let probe = StreamElement::without_features(id);
            assert_eq!(
                retrainer.engine.query(&probe).estimate.to_bits(),
                SketchBackend::query(&scheme.estimator, &probe).to_bits(),
                "id {id}"
            );
        }
    }
}
