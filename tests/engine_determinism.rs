//! Determinism of the sharded ingest engine: for every exact backend,
//! sharded + batched + merged processing of a Zipf stream must answer point
//! queries *identically* to the same backend fed one arrival at a time.

use opthash_repro::opthash::{OptHash, OptHashBuilder, SolverKind};
use opthash_repro::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A Zipf stream over `universe` ranked elements: the id *is* the rank, and
/// features encode the rank so the learned estimators can route unseen
/// elements.
fn zipf_stream(universe: usize, arrivals: usize, exponent: f64, seed: u64) -> Stream {
    let sampler = opthash_repro::datagen::ZipfSampler::new(universe, exponent);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..arrivals)
        .map(|_| {
            let rank = sampler.sample(&mut rng);
            element(rank as u64)
        })
        .collect()
}

fn element(id: u64) -> StreamElement {
    StreamElement::new(id, vec![(id as f64).ln_1p(), (id % 17) as f64])
}

/// Queries used for the equality check: the whole universe plus a band of
/// never-seen IDs.
fn probes(universe: usize) -> impl Iterator<Item = StreamElement> {
    (0..universe as u64 + 50).map(element)
}

fn assert_engine_matches_sequential<B>(backend: B, stream: &Stream, universe: usize, label: &str)
where
    B: SketchBackend + 'static,
{
    let mut sequential = backend.clone();
    for arrival in stream.iter() {
        sequential.ingest(arrival, 1);
    }
    for shards in [1usize, 2, 4, 8] {
        let mut engine = IngestEngine::new(
            backend.clone(),
            EngineConfig::with_shards(shards).batch_capacity(512),
        );
        engine.ingest_stream(stream).unwrap();
        for probe in probes(universe) {
            let sharded = engine.query_synced(&probe).unwrap();
            let expected = sequential.query(&probe);
            assert!(
                (sharded - expected).abs() < 1e-12,
                "{label} diverged at {shards} shards for {}: \
                 sharded {sharded} vs sequential {expected}",
                probe.id
            );
        }
        let stats = engine.stats();
        assert!(
            stats.aggregation_factor() >= 1.0,
            "{label}: aggregation factor must never drop below 1"
        );
        assert_eq!(
            stats.unaccounted_mass(),
            0,
            "{label}: every admitted unit of mass must be locatable"
        );
    }
}

#[test]
fn count_min_sharded_equals_sequential() {
    let stream = zipf_stream(2_000, 50_000, 1.1, 42);
    assert_engine_matches_sequential(CountMinSketch::new(256, 4, 7), &stream, 2_000, "count-min");
}

/// Regression: `ingest_batch` must accept slices shorter than its prefetch
/// lookahead (16) — the split-at-lookahead fast path used to slice
/// `elements[16..]` unconditionally and panic on 0..16 elements.
#[test]
fn ingest_batch_accepts_short_slices() {
    for len in 0..=17usize {
        let arrivals: Vec<StreamElement> = (0..len as u64).map(element).collect();
        let mut sequential = CountMinSketch::new(64, 3, 11);
        for arrival in &arrivals {
            sequential.ingest(arrival, 1);
        }
        let mut engine = IngestEngine::new(
            CountMinSketch::new(64, 3, 11),
            EngineConfig::with_shards(4).batch_capacity(8),
        );
        engine
            .ingest_batch(&arrivals)
            .unwrap_or_else(|err| panic!("len {len}: {err}"));
        for probe in (0..len as u64 + 4).map(element) {
            let got = engine.query_synced(&probe).unwrap();
            let expected = SketchBackend::query(&sequential, &probe);
            assert!(
                (got - expected).abs() < 1e-12,
                "len {len} diverged for {}: {got} vs {expected}",
                probe.id
            );
        }
        let stats = engine.stats();
        assert_eq!(stats.unaccounted_mass(), 0, "len {len}: mass unaccounted");
    }
}

/// Sharded equals sequential at the shard queue's hardest boundaries:
/// depth-1/2/3 queues with batches of 1, 2 and 7 distinct elements, so the
/// producer meets a full queue and the worker an empty one on nearly every
/// dispatch.
#[test]
fn ring_boundary_configs_match_sequential() {
    let stream = zipf_stream(300, 8_000, 1.1, 50);
    let mut sequential = CountMinSketch::new(256, 4, 7);
    for arrival in stream.iter() {
        sequential.ingest(arrival, 1);
    }
    for queue_capacity in [1usize, 2, 3] {
        for batch_capacity in [1usize, 2, 7] {
            let mut engine = IngestEngine::new(
                CountMinSketch::new(256, 4, 7),
                EngineConfig::with_shards(4)
                    .batch_capacity(batch_capacity)
                    .queue_capacity(queue_capacity),
            );
            engine.ingest_stream(&stream).unwrap();
            for probe in probes(300) {
                let got = engine.query_synced(&probe).unwrap();
                let expected = SketchBackend::query(&sequential, &probe);
                assert!(
                    (got - expected).abs() < 1e-12,
                    "queue {queue_capacity} batch {batch_capacity} diverged for {}",
                    probe.id
                );
            }
            let stats = engine.stats();
            assert_eq!(stats.unaccounted_mass(), 0);
        }
    }
}

/// Cross-thread hammer: depth-2 shard queues saturate while snapshot
/// readers pound the published state from other threads. The readers
/// assert epoch monotonicity per shard; the main thread then asserts the
/// engine still answers bit-identically to the sequential replay —
/// concurrency must not perturb a linear backend's results.
#[test]
fn ring_hammer_under_concurrent_readers_matches_sequential() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let stream = zipf_stream(500, 30_000, 1.2, 51);
    let mut sequential = CountMinSketch::new(256, 4, 7);
    for arrival in stream.iter() {
        sequential.ingest(arrival, 1);
    }
    let mut engine = IngestEngine::new(
        CountMinSketch::new(256, 4, 7),
        EngineConfig::with_shards(4)
            .batch_capacity(16)
            .queue_capacity(2),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|r| {
            let reader = engine.snapshot_reader();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_epochs: Vec<u64> = Vec::new();
                let mut last_version = 0u64;
                let mut iterations = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let answer = reader.query(&element(r * 31 + 1));
                    assert!(answer.estimate >= 0.0);
                    let stamp = answer.stamp;
                    assert!(stamp.scheme_version >= last_version, "version regressed");
                    last_version = stamp.scheme_version;
                    if last_epochs.is_empty() {
                        last_epochs = stamp.epoch_per_shard.to_vec();
                    } else {
                        for (shard, (&now, &before)) in
                            stamp.epoch_per_shard.iter().zip(&last_epochs).enumerate()
                        {
                            assert!(now >= before, "shard {shard} epoch regressed");
                        }
                        last_epochs = stamp.epoch_per_shard.to_vec();
                    }
                    iterations += 1;
                    // Leave the (possibly single) core to the ingest side
                    // between queries; the test is about interference, not
                    // about starving the engine of CPU.
                    std::thread::yield_now();
                }
                iterations
            })
        })
        .collect();
    engine.ingest_stream(&stream).unwrap();
    stop.store(true, Ordering::Relaxed);
    for handle in readers {
        let iterations = handle.join().expect("reader thread panicked");
        assert!(iterations > 0, "readers must have made progress");
    }
    for probe in probes(500) {
        let got = engine.query_synced(&probe).unwrap();
        let expected = SketchBackend::query(&sequential, &probe);
        assert!(
            (got - expected).abs() < 1e-12,
            "hammered engine diverged for {}",
            probe.id
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.unaccounted_mass(), 0);
}

#[test]
fn count_sketch_sharded_equals_sequential() {
    let stream = zipf_stream(2_000, 50_000, 1.1, 43);
    assert_engine_matches_sequential(CountSketch::new(256, 5, 7), &stream, 2_000, "count-sketch");
}

#[test]
fn learned_count_min_sharded_equals_sequential() {
    let stream = zipf_stream(2_000, 50_000, 1.1, 44);
    let truth = FrequencyVector::from_stream(&stream);
    let heavy: Vec<ElementId> = truth.ids_by_rank().into_iter().take(64).collect();
    assert_engine_matches_sequential(
        LearnedCountMin::new(heavy, 512, 2, 7),
        &stream,
        2_000,
        "heavy-hitter",
    );
}

#[test]
fn opt_hash_sharded_equals_sequential() {
    let prefix_stream = zipf_stream(500, 5_000, 1.1, 45);
    let continuation = zipf_stream(500, 50_000, 1.1, 46);
    let prefix = StreamPrefix::from_stream(prefix_stream);
    let trained: OptHash = OptHashBuilder::new(16)
        .lambda(1.0)
        .solver(SolverKind::Dp)
        .train(&prefix);
    assert_engine_matches_sequential(trained, &continuation, 500, "opt-hash");
}

#[test]
fn engine_preserves_count_min_guarantees_end_to_end() {
    // Not just self-consistency: the merged sharded sketch keeps the
    // structural Count-Min guarantee on the true frequencies.
    let stream = zipf_stream(3_000, 80_000, 1.2, 49);
    let truth = FrequencyVector::from_stream(&stream);
    let mut engine = IngestEngine::new(
        CountMinSketch::new(512, 4, 3),
        EngineConfig::with_shards(4).batch_capacity(1_024),
    );
    engine.ingest_stream(&stream).unwrap();
    let merged = engine.finish().unwrap();
    assert_eq!(merged.total_updates(), 80_000);
    for (id, f) in truth.iter() {
        assert!(
            merged.query(id) >= f,
            "sharded Count-Min under-estimated {id}"
        );
    }
}
