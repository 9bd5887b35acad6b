//! Fault-injection and overload suites for the worker engine, driven by the
//! deterministic failpoint harness (`--features failpoints`).
//!
//! Acceptance contract exercised here:
//!
//! * killing any single shard worker mid-stream yields **bit-identical**
//!   queries vs the sequential reference for linear backends, with zero
//!   unaccounted mass and the supervisor restart visible in the
//!   [`FaultLog`] — also when nothing reaps the death before `finish()`;
//! * a poison-pill batch is quarantined after three attempts, its mass
//!   stays accounted, and re-applying the quarantined updates reproduces
//!   the sequential reference exactly;
//! * a panic inside the commit critical section fences the shard off
//!   with the typed [`EngineError::ShardPoisoned`] instead of wrong counts,
//!   and batches sent to the fenced-off shard are quarantined, not lost;
//! * under deterministic overload (delayed batch application), a producer
//!   blocked on a full queue loses nothing.

#![cfg(feature = "failpoints")]

use opthash_repro::prelude::*;
use std::sync::Once;
use std::time::Duration;

/// Silences the panic messages of *injected* panics (they are expected and
/// would otherwise flood the test output), while leaving every other panic
/// loudly visible.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("failpoint"))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|m| m.contains("failpoint"));
            if !injected {
                default(info);
            }
        }));
    });
}

fn element(id: u64) -> StreamElement {
    StreamElement::without_features(id)
}

/// Deterministic pseudo-Zipf arrival sequence (xorshift over a skewed map).
fn arrivals(n: usize, universe: u64, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Heavy head: rank k drawn with weight ~1/(k+1).
            (universe / (state % universe + 1)).min(universe - 1)
        })
        .collect()
}

/// Like [`arrivals`], but with a genuine uniform tail: half the draws are
/// heavy-head ranks, half are uniform over the universe. The head exercises
/// pre-aggregation; the tail keeps each shard's batch buffer filling (and
/// dispatching) *throughout* the stream, which the worker-death tests need —
/// a fully head-dominated stream collapses into so few distinct ids that
/// every shard sees a single batch at flush and per-batch failpoints never
/// reach their trigger hit.
fn mixed_arrivals(n: usize, universe: u64, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state & 1 == 0 {
                (universe / (state % universe + 1)).min(universe - 1)
            } else {
                (state >> 1) % universe
            }
        })
        .collect()
}

fn sequential_reference(ids: &[u64]) -> CountMinSketch {
    let mut cms = CountMinSketch::new(512, 4, 9);
    for &id in ids {
        SketchBackend::ingest(&mut cms, &element(id), 1);
    }
    cms
}

fn assert_bit_identical(
    engine: &mut IngestEngine<CountMinSketch>,
    reference: &CountMinSketch,
    universe: u64,
    label: &str,
) {
    for id in 0..universe + 20 {
        assert_eq!(
            engine
                .query_synced(&element(id))
                .expect("query after recovery"),
            SketchBackend::query(reference, &element(id)),
            "{label}: diverged from sequential reference at id {id}"
        );
    }
}

// ---------------------------------------------------------------------------
// Worker death / recovery
// ---------------------------------------------------------------------------

/// Killing any single shard's worker mid-stream must be invisible in the
/// answers: the supervisor requeues the inflight batch, and the re-forked
/// worker starts from the shard's committed snapshot and drains the
/// surviving queue.
#[test]
fn killing_any_worker_mid_stream_is_bit_identical() {
    quiet_injected_panics();
    let ids = mixed_arrivals(50_000, 2_000, 42);
    let reference = sequential_reference(&ids);
    for victim in 0..4usize {
        let mut engine = IngestEngine::new(
            CountMinSketch::new(512, 4, 9),
            EngineConfig::with_shards(4).batch_capacity(64),
        );
        // Die on the victim's 5th event-loop iteration: several batches in,
        // several batches still to come.
        engine.fault_injector().program(
            &format!("worker::poll@{victim}"),
            FaultPlan::panic().on_hit(5),
        );
        for &id in &ids {
            engine.ingest(&element(id)).unwrap();
        }
        engine
            .flush()
            .expect("flush must recover through the death");
        let stats = engine.stats();
        assert_eq!(
            stats.unaccounted_mass(),
            0,
            "victim {victim}: zero unaccounted mass after recovery"
        );
        assert_eq!(stats.quarantined_mass, 0, "death is not a poison pill");
        let log = engine.fault_log();
        assert!(
            log.worker_restarts() >= 1,
            "victim {victim}: supervisor restart must be visible in the FaultLog, got {log:?}"
        );
        assert_eq!(stats.worker_restarts, log.worker_restarts() as u64);
        assert_bit_identical(&mut engine, &reference, 2_000, "worker death");
    }
}

/// A death in the window *between* applying a batch and committing it must
/// not double-apply: the committed snapshot excludes the batch and the
/// supervisor requeues it — exactly-once either way.
#[test]
fn death_between_apply_and_commit_applies_exactly_once() {
    quiet_injected_panics();
    let ids = mixed_arrivals(30_000, 1_000, 77);
    let reference = sequential_reference(&ids);
    let mut engine = IngestEngine::new(
        CountMinSketch::new(512, 4, 9),
        EngineConfig::with_shards(2).batch_capacity(64),
    );
    engine
        .fault_injector()
        .program("worker::before_commit@0", FaultPlan::panic().on_hit(3));
    for &id in &ids {
        engine.ingest(&element(id)).unwrap();
    }
    engine.flush().expect("recovery flush");
    let log = engine.fault_log();
    assert_eq!(log.worker_restarts(), 1);
    assert!(log.batch_panics() >= 1, "the uncommitted batch is requeued");
    let stats = engine.stats();
    assert_eq!(stats.unaccounted_mass(), 0);
    assert_bit_identical(&mut engine, &reference, 1_000, "pre-commit death");
}

/// A worker that dies while nothing waits on its shard is never reaped
/// before `finish()`. The queues are deep enough that no dispatch blocks,
/// so nothing supervises during ingest; `finish()` must supervise while it
/// waits for the shard to drain, so the re-forked worker applies the
/// inflight batch and the rest of the queue.
#[test]
fn finish_after_an_unreaped_worker_death_is_bit_identical() {
    quiet_injected_panics();
    let ids = mixed_arrivals(30_000, 1_500, 23);
    let reference = sequential_reference(&ids);
    let mut engine = IngestEngine::new(
        CountMinSketch::new(512, 4, 9),
        EngineConfig::with_shards(3)
            .batch_capacity(64)
            .queue_capacity(4_096),
    );
    engine
        .fault_injector()
        .program("worker::before_commit@1", FaultPlan::panic().on_hit(2));
    for &id in &ids {
        engine.ingest(&element(id)).unwrap();
    }
    assert_eq!(
        engine.fault_log().worker_restarts(),
        0,
        "no dispatch blocked, so nothing has supervised yet"
    );
    let finished = engine.finish().expect("finish must recover the death");
    for id in 0..1_520u64 {
        assert_eq!(
            SketchBackend::query(&finished, &element(id)),
            SketchBackend::query(&reference, &element(id)),
            "finished sketch diverged from sequential reference at id {id}"
        );
    }
}

// ---------------------------------------------------------------------------
// Poison pills
// ---------------------------------------------------------------------------

/// A batch that panics on every application attempt is quarantined after
/// three attempts, fully accounted; re-applying the quarantined updates
/// reproduces the sequential reference exactly.
#[test]
fn poison_pill_batch_is_quarantined_and_reapplyable() {
    quiet_injected_panics();
    let ids = arrivals(20_000, 1_500, 11);
    let reference = sequential_reference(&ids);
    let mut engine = IngestEngine::new(
        CountMinSketch::new(512, 4, 9),
        EngineConfig::with_shards(3).batch_capacity(64),
    );
    // Panic on the first update of shard 1's inflight batch, three times in
    // a row: one batch exhausts all three of its attempts.
    engine
        .fault_injector()
        .program("worker::apply@1", FaultPlan::panic().times(3));
    for &id in &ids {
        engine.ingest(&element(id)).unwrap();
    }
    engine.flush().expect("quarantine must not fail the flush");
    let stats = engine.stats();
    let log = engine.fault_log();
    assert_eq!(log.quarantines(), 1, "exactly one poison pill: {log:?}");
    assert_eq!(log.batch_panics(), 2, "two retries before quarantine");
    assert!(stats.quarantined_mass > 0);
    assert_eq!(
        stats.unaccounted_mass(),
        0,
        "quarantined mass must stay accounted"
    );

    // The quarantined updates are retrievable and complete: re-applying
    // them closes the gap to the sequential reference bit-for-bit.
    let quarantined = engine.quarantined();
    assert_eq!(
        quarantined.iter().map(|(_, c)| c).sum::<u64>(),
        stats.quarantined_mass
    );
    let mut repaired = engine.finish().expect("finish with a quarantine");
    for (element, count) in &quarantined {
        SketchBackend::ingest(&mut repaired, element, *count);
    }
    for id in 0..1_520u64 {
        assert_eq!(
            SketchBackend::query(&repaired, &element(id)),
            SketchBackend::query(&reference, &element(id)),
            "re-applied quarantine diverged at id {id}"
        );
    }
}

// ---------------------------------------------------------------------------
// Shard poisoning
// ---------------------------------------------------------------------------

/// A panic inside the commit critical section may leave the snapshot
/// half-written: the shard must be fenced off and queries must fail with
/// the typed error instead of answering from corrupt state.
#[test]
fn checkpoint_panic_poisons_the_shard() {
    quiet_injected_panics();
    let mut engine = IngestEngine::new(
        CountMinSketch::new(512, 4, 9),
        EngineConfig::with_shards(2).batch_capacity(16),
    );
    engine
        .fault_injector()
        .program("worker::checkpoint@0", FaultPlan::panic().on_hit(1));
    // Shard 0's first commit poisons it, so once its queue fills, ingest
    // reports the fenced-off shard for every batch routed there.
    for &id in &arrivals(5_000, 400, 5) {
        match engine.ingest(&element(id)) {
            Ok(()) | Err(EngineError::ShardPoisoned { shard: 0 }) => {}
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    let err = engine
        .flush()
        .expect_err("poisoned shard must fail the flush");
    assert_eq!(err, EngineError::ShardPoisoned { shard: 0 });
    assert_eq!(
        engine
            .query_synced(&element(3))
            .expect_err("queries must refuse"),
        EngineError::ShardPoisoned { shard: 0 }
    );
    // The poisoning is reported (the dead worker may need one supervision
    // pass to be reaped once its thread has fully exited).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while engine.fault_log().poisonings() == 0 && std::time::Instant::now() < deadline {
        engine.supervise();
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(engine.fault_log().poisonings(), 1);
    assert_eq!(
        engine.finish().expect_err("finish must refuse"),
        EngineError::ShardPoisoned { shard: 0 }
    );
}

/// A poisoned shard's worker never drains its queue again, so every batch
/// dispatched to the shard must go to its quarantine — retrievable and
/// fully accounted — whether or not its queue has room, instead of being
/// dropped or parked in a queue nobody drains.
#[test]
fn batches_sent_to_a_poisoned_shard_are_quarantined() {
    quiet_injected_panics();
    let mut engine = IngestEngine::new(
        CountMinSketch::new(512, 4, 9),
        EngineConfig::with_shards(1)
            .batch_capacity(16)
            .queue_capacity(2),
    );
    engine
        .fault_injector()
        .program("worker::checkpoint@0", FaultPlan::panic().on_hit(1));
    for id in 0..10u64 {
        engine.ingest(&element(id)).unwrap();
    }
    assert_eq!(
        engine
            .flush()
            .expect_err("the checkpoint panic poisons the shard"),
        EngineError::ShardPoisoned { shard: 0 }
    );
    let mut errors = 0u64;
    for id in 0..2_000u64 {
        match engine.ingest(&element(id % 500)) {
            Ok(()) => {}
            Err(EngineError::ShardPoisoned { shard: 0 }) => errors += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(errors > 0, "dispatches to the dead shard must fail");
    let stats = engine.stats();
    assert_eq!(
        stats.unaccounted_mass(),
        0,
        "refused batches must stay accounted: {stats:?}"
    );
    assert_eq!(stats.ingested_mass(), 2_010, "every arrival is admitted");
    assert!(stats.quarantined_mass > 0);
    assert_eq!(stats.queued_mass, 0, "nothing waits in the dead queue");
    assert_eq!(stats.quarantined_mass + stats.buffered_mass, 2_000);
    assert_eq!(
        engine.quarantined().iter().map(|(_, c)| c).sum::<u64>(),
        stats.quarantined_mass
    );
    assert_eq!(engine.fault_log().quarantines() as u64, errors);
}

/// The `Error` action surfaces the typed [`EngineError::FaultInjected`] on
/// fallible paths — the cheap way to test caller-side error handling.
#[test]
fn error_action_surfaces_typed_error() {
    let mut engine = IngestEngine::new(CountMinSketch::new(64, 2, 1), EngineConfig::with_shards(1));
    engine
        .fault_injector()
        .program("engine::ingest", FaultPlan::error().on_hit(3));
    assert!(engine.ingest(&element(1)).is_ok());
    assert!(engine.ingest(&element(2)).is_ok());
    assert_eq!(
        engine.ingest(&element(3)).unwrap_err(),
        EngineError::FaultInjected {
            failpoint: "engine::ingest"
        }
    );
    assert!(engine.ingest(&element(4)).is_ok());
}

// ---------------------------------------------------------------------------
// Overload suite: deterministic backpressure via delayed batch application
// ---------------------------------------------------------------------------

/// Overload fixture: one shard whose worker sleeps on every batch, so the
/// offered rate exceeds the drain rate by construction. The overload test
/// feeds it [`mixed_arrivals`]: its uniform tail keeps the 64-id batches
/// filling and dispatching throughout the stream, while a head-only stream
/// collapses into so few batches that the producer barely outpaces the
/// drain.
fn overloaded_engine() -> IngestEngine<CountMinSketch> {
    let engine = IngestEngine::new(
        CountMinSketch::new(512, 4, 9),
        EngineConfig::with_shards(1)
            .batch_capacity(64)
            .queue_capacity(2),
    );
    engine
        .fault_injector()
        .program("worker::batch", FaultPlan::delay(Duration::from_millis(2)));
    engine
}

/// Every arrival is admitted (the producer stalls on the full queue
/// instead), so the result equals the sequential reference.
#[test]
fn blocking_loses_nothing_under_overload() {
    let ids = mixed_arrivals(20_000, 3_000, 21);
    let reference = sequential_reference(&ids);
    let mut engine = overloaded_engine();
    for &id in &ids {
        engine.ingest(&element(id)).unwrap();
    }
    engine.flush().unwrap();
    let stats = engine.stats();
    assert_eq!(stats.ingested_mass(), ids.len() as u64);
    assert_eq!(stats.unaccounted_mass(), 0);
    assert_bit_identical(&mut engine, &reference, 3_000, "blocking overload");
}

// ---------------------------------------------------------------------------
// Hot-swap publish panic
// ---------------------------------------------------------------------------

/// A panic during a swap publish (`worker::swap`) kills the victim worker
/// with the swap request still pending — nothing was mutated yet — so the
/// supervisor's replacement worker starts from the pre-swap snapshot and
/// redoes the swap exactly once. The retired backend still equals the
/// sequential pre-swap replay, the engine continues bit-identically on the
/// new base, and not one unit of mass goes unaccounted.
#[test]
fn swap_publish_panic_recovers_and_redoes_the_swap() {
    quiet_injected_panics();
    let pre = mixed_arrivals(30_000, 1_500, 7);
    let post = mixed_arrivals(30_000, 1_500, 11);
    let reference_pre = sequential_reference(&pre);
    let reference_post = sequential_reference(&post);
    for victim in 0..3usize {
        let base = CountMinSketch::new(512, 4, 9);
        let mut engine = IngestEngine::new(
            base.clone(),
            EngineConfig::with_shards(3).batch_capacity(64),
        );
        engine.fault_injector().program(
            &format!("worker::swap@{victim}"),
            FaultPlan::panic().on_hit(1),
        );
        for &id in &pre {
            engine.ingest(&element(id)).unwrap();
        }
        let retired = engine
            .swap_backend(base.clone())
            .expect("the swap must survive the publish panic");
        assert_eq!(engine.scheme_version(), 1);
        let log = engine.fault_log();
        assert!(
            log.worker_restarts() >= 1,
            "victim {victim}: the publish panic must be visible as a restart, got {log:?}"
        );
        for id in 0..1_520u64 {
            assert_eq!(
                SketchBackend::query(&retired, &element(id)),
                SketchBackend::query(&reference_pre, &element(id)),
                "victim {victim}: retired counts diverged at id {id}"
            );
        }
        assert_eq!(engine.stats().unaccounted_mass(), 0);
        for &id in &post {
            engine.ingest(&element(id)).unwrap();
        }
        assert_bit_identical(&mut engine, &reference_post, 1_500, "post-swap stream");
        let stats = engine.stats();
        assert_eq!(stats.unaccounted_mass(), 0);
        assert_eq!(
            stats.quarantined_mass, 0,
            "a swap panic is not a poison pill"
        );
    }
}
