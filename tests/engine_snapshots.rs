//! Wait-free snapshot read path: epoch-stamped queries must return without
//! touching the flush barrier, stamps must be monotone and fully
//! mass-accounted, readers must survive the engine, and a snapshot taken
//! mid-swap must observe exactly one scheme version — never a torn mix.
//!
//! The failpoint-gated module holds the centrepiece: a worker stalled
//! *mid-batch* by an injected delay cannot block `query()`, which returns
//! the shard's older epoch while `query_synced()`/`flush()` would have to
//! wait the stall out. The proof is structural, not timed — the assertions
//! are on stamps and ledgers, not on stopwatch readings.

use opthash_repro::prelude::*;

fn element(id: u64) -> StreamElement {
    StreamElement::without_features(id)
}

/// After every flush, the published stamps must account for every unit of
/// admitted mass, epochs must never regress, and the scheme version must
/// hold steady at 0 (no swap in this test).
#[test]
fn stamps_are_monotone_and_fully_accounted_after_every_flush() {
    let mut engine = IngestEngine::new(
        CountMinSketch::new(256, 4, 5),
        EngineConfig::with_shards(3).batch_capacity(4),
    );
    let mut previous = engine.snapshot_stamp();
    assert_eq!(previous.epoch_per_shard.len(), 3);
    assert_eq!(previous.mass_accounted, 0);
    let mut total = 0u64;
    for chunk in 0..10u64 {
        for id in 0..50u64 {
            engine.ingest(&element(chunk * 37 + id)).unwrap();
            total += 1;
        }
        engine.flush().unwrap();
        let stamp = engine.snapshot_stamp();
        assert_eq!(stamp.scheme_version, 0, "no swap happened");
        assert_eq!(
            stamp.mass_accounted, total,
            "post-flush stamp must account for every admitted unit"
        );
        for (shard, (&now, &before)) in stamp
            .epoch_per_shard
            .iter()
            .zip(previous.epoch_per_shard.iter())
            .enumerate()
        {
            assert!(
                now >= before,
                "shard {shard} epoch regressed {before} -> {now}"
            );
        }
        let stats = engine.stats();
        assert_eq!(stats.unaccounted_mass(), 0, "mass unaccounted");
        previous = stamp;
    }
    // The wait-free path and the barrier path agree once flushed.
    for id in 0..60u64 {
        assert_eq!(
            engine.query(&element(id)).estimate,
            engine.query_synced(&element(id)).unwrap(),
            "read paths disagree for {id}"
        );
    }
}

/// Snapshot readers are plain `Arc` holders: clones answer independently,
/// and both keep answering — with the final published state — after the
/// engine itself has been consumed by `finish()`.
#[test]
fn readers_and_their_clones_outlive_the_engine() {
    let mut engine = IngestEngine::new(
        CountMinSketch::new(256, 4, 5),
        EngineConfig::with_shards(2).batch_capacity(8),
    );
    let reader = engine.snapshot_reader();
    let clone = reader.clone();
    for id in 0..400u64 {
        engine.ingest(&element(id % 40)).unwrap();
    }
    engine.flush().unwrap();
    let merged = engine.finish().unwrap();
    for id in 0..50u64 {
        let expected = SketchBackend::query(&merged, &element(id));
        let seen = reader.query(&element(id));
        assert_eq!(
            seen.estimate, expected,
            "reader diverged from the finished backend for {id}"
        );
        assert_eq!(seen.stamp.mass_accounted, 400);
        assert_eq!(
            clone.query(&element(id)).estimate,
            expected,
            "cloned reader diverged for {id}"
        );
    }
}

/// Hammering snapshot queries across one `swap_backend` call must observe
/// exactly the old world (stamp version 0, the pre-swap estimates, the full
/// pre-swap mass) or exactly the new world (stamp version 1, a blank
/// backend, zero mass) — any other combination is a torn read across the
/// shard swap and fails loudly.
#[test]
fn a_snapshot_mid_swap_is_never_a_torn_mix_of_schemes() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let mut engine = IngestEngine::new(
        CountMinSketch::new(256, 4, 5),
        EngineConfig::with_shards(4).batch_capacity(8),
    );
    let probe_ids: Vec<u64> = (0..32).collect();
    for _ in 0..25 {
        for &id in &probe_ids {
            engine.ingest(&element(id)).unwrap();
        }
    }
    engine.flush().unwrap();
    let total_mass = 25 * probe_ids.len() as u64;
    let expected_old: Vec<f64> = probe_ids
        .iter()
        .map(|&id| engine.query_synced(&element(id)).unwrap())
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let sampled = Arc::new(AtomicU64::new(0));
    let reader = engine.snapshot_reader();
    let reader_ids = probe_ids.clone();
    let reader_stop = Arc::clone(&stop);
    let reader_sampled = Arc::clone(&sampled);
    let hammer = std::thread::spawn(move || {
        let mut samples: Vec<(u64, u64, f64, u64)> = Vec::new();
        let mut i = 0usize;
        while !reader_stop.load(Ordering::Relaxed) {
            let id = reader_ids[i % reader_ids.len()];
            i += 1;
            let answer = reader.query(&element(id));
            samples.push((
                id,
                answer.stamp.scheme_version,
                answer.estimate,
                answer.stamp.mass_accounted,
            ));
            reader_sampled.fetch_add(1, Ordering::Relaxed);
            // Keep the (possibly single) core available to the swap.
            std::thread::yield_now();
        }
        samples
    });
    // Let the hammer observe the old world before swapping, so the
    // saw-the-old-scheme assertion below is deterministic.
    while sampled.load(Ordering::Relaxed) == 0 {
        std::thread::yield_now();
    }

    // One hot swap to a blank scheme while the reader hammers away.
    let retired = engine.swap_backend(CountMinSketch::new(256, 4, 5)).unwrap();
    assert_eq!(retired.total_updates(), total_mass);
    stop.store(true, Ordering::Relaxed);
    let samples = hammer.join().expect("hammer thread panicked");
    assert!(!samples.is_empty(), "hammer must have sampled something");

    let mut saw_old = false;
    for (id, version, estimate, mass) in samples {
        let expected = expected_old[id as usize];
        match version {
            0 => {
                saw_old = true;
                assert_eq!(
                    estimate, expected,
                    "version-0 stamp must carry the full old estimate for {id}"
                );
                assert_eq!(mass, total_mass, "version-0 stamp must carry the old mass");
            }
            1 => {
                assert_eq!(estimate, 0.0, "version-1 stamp must see the blank scheme");
                assert_eq!(mass, 0, "version-1 stamp must carry no old mass");
            }
            other => panic!("impossible scheme version {other}"),
        }
    }
    // The reader started before the swap, so the old world must appear.
    assert!(saw_old, "hammer never observed the pre-swap scheme");
    assert_eq!(engine.snapshot_stamp().scheme_version, 1);
    assert_eq!(engine.scheme_version(), 1);
}

#[cfg(feature = "failpoints")]
mod failpoints {
    use super::*;
    use std::time::Duration;

    /// The never-blocks proof. A 1-shard worker engine gets its only worker
    /// stalled inside batch application by an injected delay. While the
    /// batch's mass is provably in flight (admitted, queued, not applied),
    /// `query()` must return — carrying the shard's *older* epoch and none
    /// of the stalled mass — and the queued-mass ledger must still balance
    /// to zero unaccounted units. `flush()` then has to wait the stall out,
    /// after which the synced path sees everything and the stamp catches up.
    #[test]
    fn snapshot_queries_return_while_a_worker_is_stalled_mid_batch() {
        let mut engine = IngestEngine::new(
            CountMinSketch::new(256, 4, 5),
            EngineConfig::with_shards(1).batch_capacity(8),
        );
        engine.fault_injector().program(
            "worker::apply@0",
            FaultPlan::delay(Duration::from_millis(400)).on_hit(1),
        );
        let before = engine.snapshot_stamp();

        // Eight distinct ids fill the shard's batch buffer; the ninth
        // arrival dispatches them, so the stalled application happens
        // *during* ingest (id 8 stays buffered).
        for id in 0..9u64 {
            engine.ingest(&element(id)).unwrap();
        }

        // The worker is asleep inside `worker::apply`. The wait-free path
        // must answer anyway, from the last published snapshot.
        let during = engine.query(&element(3));
        assert_eq!(
            during.stamp.epoch_per_shard, before.epoch_per_shard,
            "the stalled shard cannot have published a newer epoch"
        );
        assert_eq!(
            during.stamp.mass_accounted, 0,
            "none of the in-flight mass may appear in the stamp"
        );
        assert_eq!(during.estimate, 0.0);

        // Every admitted unit is locatable even mid-stall: the batch's mass
        // sits in the queued-mass ledger, not in limbo.
        let stats = engine.stats();
        assert_eq!(stats.unaccounted_mass(), 0);
        assert_eq!(stats.queued_mass, 8, "the stalled batch mass is queued");

        // The barrier path must wait the stall out — and then see it all.
        engine.flush().unwrap();
        for id in 0..9u64 {
            assert_eq!(engine.query_synced(&element(id)).unwrap(), 1.0);
        }
        let after = engine.snapshot_stamp();
        assert!(
            after.epoch_per_shard[0] > before.epoch_per_shard[0],
            "the post-flush commit must publish a newer epoch"
        );
        assert_eq!(after.mass_accounted, 9);
        // And the two read paths agree again.
        for id in 0..9u64 {
            assert_eq!(engine.query(&element(id)).estimate, 1.0);
        }
    }

    /// `flush()` and `swap_backend()` return only once the wait-free path
    /// reflects them. A delay right before every slot publication holds
    /// each worker between committing its snapshot and publishing it: a
    /// worker that marked the batch (or the swap) done first would let the
    /// engine return while readers still saw the previous snapshot — after
    /// a swap, a torn mix of the new base and an old-scheme delta.
    #[test]
    fn flush_and_swap_return_only_after_their_publication() {
        let mut engine =
            IngestEngine::new(CountMinSketch::new(256, 4, 5), EngineConfig::with_shards(2));
        engine.fault_injector().program(
            "worker::publish",
            FaultPlan::delay(Duration::from_millis(100)),
        );
        for id in 0..40u64 {
            engine.ingest(&element(id)).unwrap();
        }

        engine.flush().unwrap();
        assert_eq!(
            engine.snapshot_stamp().mass_accounted,
            40,
            "a returned flush must already be visible to wait-free reads"
        );
        for id in 0..40u64 {
            assert_eq!(engine.query(&element(id)).estimate, 1.0, "id {id}");
        }

        engine.swap_backend(CountMinSketch::new(256, 4, 5)).unwrap();
        let stamp = engine.snapshot_stamp();
        assert_eq!(stamp.scheme_version, 1);
        assert_eq!(
            stamp.mass_accounted, 0,
            "a returned swap must leave no old-scheme delta in the view"
        );
        assert_eq!(engine.query(&element(7)).estimate, 0.0);
    }
}
