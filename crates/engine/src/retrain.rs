//! Online re-training with atomic hot-swap.
//!
//! The paper trains the learned hashing scheme once on a stream prefix and
//! serves it forever; production streams drift. [`Retrainer`] wraps an
//! [`IngestEngine`] over [`opthash::OptHash`] and keeps the scheme current:
//!
//! 1. it maintains a **sliding window** of the last
//!    [`RetrainConfig::window`] arrivals (a ring of IDs plus exact window
//!    counts, so eviction is O(1) per arrival);
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
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;

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
    /// worse than the incumbent).
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
    /// [`RetrainConfig::min_distinct`] distinct elements.
    pub skipped: u64,
    /// Background trainings that panicked; the incumbent scheme stayed
    /// live.
    pub failed: u64,
}

/// A live ingest engine that re-trains its [`OptHash`] scheme online.
pub struct Retrainer {
    engine: IngestEngine<OptHash>,
    config: RetrainConfig,
    /// Ring of the last `window` arrival IDs, oldest first.
    ring: VecDeque<ElementId>,
    /// Exact window counts plus each ID's first-seen element (whose
    /// features represent it in the training prefix).
    window_counts: HashMap<ElementId, (u64, StreamElement)>,
    since_retrain: usize,
    scheme: Arc<TrainedScheme>,
    /// In-flight background training, if any.
    pending: Option<JoinHandle<OptHash>>,
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
            ring: VecDeque::with_capacity(config.window),
            window_counts: HashMap::new(),
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
    /// accumulated while live), oldest first.
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
            if self.window_counts.len() < self.config.min_distinct {
                self.stats.skipped += 1;
            } else if self.config.background {
                // Only the copy of the pairs stays on the ingest thread; the
                // sort and the prefix build run with the solve.
                let scheme = Arc::clone(&self.scheme);
                let pairs = self.window_pairs();
                self.pending = Some(std::thread::spawn(move || {
                    scheme.estimator.retrain(&window_prefix(pairs))
                }));
            } else {
                self.train_and_swap()?;
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
        if self.pending.as_ref().is_some_and(|h| h.is_finished()) {
            let handle = self.pending.take().expect("checked above");
            match handle.join() {
                Ok(estimator) => {
                    self.stats.retrains += 1;
                    self.publish(estimator)?;
                }
                Err(_) => self.stats.failed += 1,
            }
        }
        Ok(())
    }

    /// Forces a synchronous re-train on the current window and hot-swaps
    /// the result, regardless of the schedule. Any in-flight background
    /// solve is awaited and published first. Returns `false` (without
    /// training) if the window holds fewer than
    /// [`RetrainConfig::min_distinct`] distinct elements.
    pub fn retrain_now(&mut self) -> Result<bool, EngineError> {
        if let Some(handle) = self.pending.take() {
            match handle.join() {
                Ok(estimator) => {
                    self.stats.retrains += 1;
                    self.publish(estimator)?;
                }
                Err(_) => self.stats.failed += 1,
            }
        }
        if self.window_counts.len() < self.config.min_distinct {
            self.stats.skipped += 1;
            return Ok(false);
        }
        self.since_retrain = 0;
        self.train_and_swap()?;
        Ok(true)
    }

    /// Queries the live engine (flushing so the answer covers every
    /// admitted arrival).
    pub fn query(&mut self, element: &StreamElement) -> Result<f64, EngineError> {
        self.engine.query_synced(element)
    }

    /// Awaits any in-flight solve, publishes it, and finishes the engine,
    /// returning the final live estimator.
    pub fn finish(mut self) -> Result<OptHash, EngineError> {
        if let Some(handle) = self.pending.take() {
            match handle.join() {
                Ok(estimator) => {
                    self.stats.retrains += 1;
                    self.publish(estimator)?;
                }
                Err(_) => self.stats.failed += 1,
            }
        }
        self.engine.finish()
    }

    /// Slides the window over one arrival.
    fn observe(&mut self, element: &StreamElement) {
        if self.ring.len() == self.config.window {
            if let Some(evicted) = self.ring.pop_front() {
                if let Some(entry) = self.window_counts.get_mut(&evicted) {
                    entry.0 -= 1;
                    if entry.0 == 0 {
                        self.window_counts.remove(&evicted);
                    }
                }
            }
        }
        self.ring.push_back(element.id);
        self.window_counts
            .entry(element.id)
            .and_modify(|entry| entry.0 += 1)
            .or_insert_with(|| (1, element.clone()));
    }

    /// The window's exact `(element, count)` pairs, in map order.
    fn window_pairs(&self) -> Vec<(StreamElement, u64)> {
        self.window_counts
            .values()
            .map(|(count, element)| (element.clone(), *count))
            .collect()
    }

    fn train_and_swap(&mut self) -> Result<(), EngineError> {
        let estimator = self
            .scheme
            .estimator
            .retrain(&window_prefix(self.window_pairs()));
        self.stats.retrains += 1;
        self.publish(estimator)
    }

    /// Publishes a freshly trained estimator as the next scheme version and
    /// hot-swaps it into the engine.
    fn publish(&mut self, estimator: OptHash) -> Result<(), EngineError> {
        let scheme = Arc::new(TrainedScheme {
            version: self.scheme.version + 1,
            estimator,
        });
        let retired = self.engine.swap_backend(scheme.estimator.clone())?;
        self.retired.push(retired);
        self.scheme = scheme;
        self.stats.swaps += 1;
        Ok(())
    }
}

/// The window's exact frequency vector as a training prefix, in ascending
/// `ElementId` order. The window map iterates in a per-map random order, and
/// both BCD's initial assignment and the equal-count shortcut's tie order
/// follow the prefix order, so sorting is what makes a re-solve a function
/// of the window alone.
fn window_prefix(mut pairs: Vec<(StreamElement, u64)>) -> StreamPrefix {
    pairs.sort_unstable_by_key(|(element, _)| element.id);
    StreamPrefix::from_counts(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(retrainer.window_counts.len(), 8);
        assert!(retrainer.window_counts.contains_key(&ElementId(31)));
        assert!(!retrainer.window_counts.contains_key(&ElementId(0)));
        retrainer.finish().unwrap();
    }
}
