//! End-to-end drift suite for the online re-training engine.
//!
//! Acceptance contract exercised here:
//!
//! * on a rotating-Zipf drifting workload, the retraining engine's
//!   sliding-window estimation error is at least 25% below a statically
//!   trained `OptHash`'s from the first post-drift epoch on, and never
//!   worse than a plain Count-Min sketch fed the same arrivals;
//! * a hot-swap in the middle of a live stream is **bit-safe**: queries
//!   before and after the swap answer exactly the incumbent and the fresh
//!   scheme respectively, the retired backend equals a sequential replay of
//!   the pre-swap arrivals, and nothing panics or stalls;
//! * `unaccounted_mass()` is 0 across every hot-swap, in both ingest modes.

use opthash_repro::prelude::*;
use std::collections::{HashMap, VecDeque};

fn drift_workload() -> DriftingWorkload {
    DriftingWorkload::new(DriftConfig {
        universe: 500,
        exponent: 1.1,
        epoch_len: 4_000,
        epochs: 3,
        rotation: 150,
        seed: 9,
    })
}

fn bcd_warm() -> SolverKind {
    SolverKind::Bcd(BcdConfig::default().with_warm_start())
}

/// Mean absolute error against the exact counts of the arrivals in `tail`,
/// probed at every distinct element of the window.
fn window_mae(
    tail: &VecDeque<StreamElement>,
    mut estimate: impl FnMut(&StreamElement) -> f64,
) -> f64 {
    let mut truth: HashMap<ElementId, (u64, StreamElement)> = HashMap::new();
    for element in tail {
        truth
            .entry(element.id)
            .and_modify(|entry| entry.0 += 1)
            .or_insert_with(|| (1, element.clone()));
    }
    let total: f64 = truth
        .values()
        .map(|(count, element)| (estimate(element) - *count as f64).abs())
        .sum();
    total / truth.len().max(1) as f64
}

/// The headline drift claim: retraining beats the static scheme by ≥ 25%
/// after the first rotation and tracks (or beats) plain Count-Min, while
/// conserving mass across every hot-swap.
#[test]
fn retraining_engine_tracks_drift_better_than_static_schemes() {
    let workload = drift_workload();
    let window = 2_000usize;

    let epoch0 = workload.epoch_arrivals(0);
    let boot = StreamPrefix::from_stream(Stream::from_arrivals(epoch0[..window].to_vec()));
    let initial = OptHashBuilder::new(32)
        .lambda(1.0)
        .solver(bcd_warm())
        .train(&boot);

    let mut retrainer = Retrainer::new(
        initial.clone(),
        EngineConfig::with_shards(3),
        RetrainConfig {
            window,
            retrain_interval: 900,
            min_distinct: 16,
            background: false,
        },
    );
    let mut static_opthash = initial;
    let mut count_min = CountMinSketch::new(32, 4, 9);

    let mut tail: VecDeque<StreamElement> = VecDeque::with_capacity(window + 1);
    for epoch in 0..workload.config().epochs {
        for element in &workload.epoch_arrivals(epoch) {
            retrainer.ingest(element).expect("retrainer ingest");
            static_opthash.add(element, 1);
            count_min.add(element.id, 1);
            if tail.len() == window {
                tail.pop_front();
            }
            tail.push_back(element.clone());
        }

        let mae_retrain = {
            let r = &mut retrainer;
            window_mae(&tail, |e| r.query(e).expect("retrainer query"))
        };
        let mae_static = window_mae(&tail, |e| FrequencyEstimator::estimate(&static_opthash, e));
        let mae_cms = window_mae(&tail, |e| count_min.query(e.id) as f64);

        assert_eq!(
            retrainer.engine_stats().unaccounted_mass(),
            0,
            "hot-swaps must conserve mass through epoch {epoch}"
        );
        assert!(
            mae_retrain <= mae_cms,
            "epoch {epoch}: retraining engine ({mae_retrain:.2}) must track or beat \
             plain count-min ({mae_cms:.2})"
        );
        if epoch >= 1 {
            assert!(
                mae_retrain <= 0.75 * mae_static,
                "epoch {epoch}: retraining engine ({mae_retrain:.2}) must cut ≥ 25% of \
                 the static scheme's window error ({mae_static:.2})"
            );
        }
    }

    let stats = retrainer.retrain_stats();
    assert!(stats.swaps >= 2, "the schedule must have hot-swapped");
    assert_eq!(stats.failed, 0);
    // A window with no more distinct counts than buckets is solved exactly
    // by the equal-count shortcut, which has no descent to warm-start.
    let last = retrainer.scheme().solver_stats().clone();
    assert!(
        last.warm_started || last.proven_optimal,
        "scheduled re-solves must warm-start from the incumbent or be proven optimal"
    );
    assert_eq!(retrainer.take_retired().len() as u64, stats.swaps);
    retrainer.finish().expect("clean finish");
}

/// Bit-safety of a mid-stream swap: the retired backend is exactly the
/// sequential pre-swap replay, and post-swap queries are exactly the fresh
/// scheme plus the post-swap arrivals.
#[test]
fn hot_swap_mid_stream_is_bit_safe_in_worker_mode() {
    let phase1: Vec<StreamElement> = (0..2_000u64)
        .map(|i| StreamElement::without_features(i % 50))
        .collect();
    let phase2: Vec<StreamElement> = (0..2_000u64)
        .map(|i| StreamElement::without_features(100 + i % 50))
        .collect();
    let train = |arrivals: &[StreamElement]| {
        OptHashBuilder::new(16)
            .lambda(1.0)
            .solver(bcd_warm())
            .train(&StreamPrefix::from_stream(Stream::from_arrivals(
                arrivals.to_vec(),
            )))
    };
    let scheme_a = train(&phase1);
    let scheme_b = train(&phase2);

    let mut engine = IngestEngine::new(scheme_a.clone(), EngineConfig::with_shards(3));
    for element in &phase1 {
        engine.ingest(element).expect("phase-1 ingest");
    }
    let probe = StreamElement::without_features(7u64);
    let before = engine.query_synced(&probe).expect("query before swap");

    // Swap mid-stream: no panic, no stall, version bump, zero unaccounted.
    let retired = engine.swap_backend(scheme_b.clone()).expect("hot swap");
    assert_eq!(engine.scheme_version(), 1);
    assert_eq!(engine.stats().unaccounted_mass(), 0);

    // The retired backend is bit-identical to a sequential replay of the
    // pre-swap arrivals into the incumbent (OptHash is a linear backend).
    let mut reference_a = scheme_a;
    for element in &phase1 {
        reference_a.add(element, 1);
    }
    for id in 0..200u64 {
        let e = StreamElement::without_features(id);
        assert_eq!(
            SketchBackend::query(&retired, &e),
            SketchBackend::query(&reference_a, &e),
            "retired scheme diverged from sequential replay at id {id}"
        );
    }
    assert_eq!(before, SketchBackend::query(&reference_a, &probe));

    // The engine keeps ingesting on the fresh scheme; queries equal the
    // fresh scheme plus exactly the post-swap arrivals.
    for element in &phase2 {
        engine.ingest(element).expect("phase-2 ingest");
    }
    let mut reference_b = scheme_b;
    for element in &phase2 {
        reference_b.add(element, 1);
    }
    for id in 0..200u64 {
        let e = StreamElement::without_features(id);
        assert_eq!(
            engine.query_synced(&e).expect("query after swap"),
            SketchBackend::query(&reference_b, &e),
            "post-swap engine diverged from the fresh scheme at id {id}"
        );
    }
    assert_eq!(engine.stats().unaccounted_mass(), 0);
    engine.finish().expect("clean finish");
}

/// Background training publishes without stalling ingest: drive arrivals
/// until the background solve lands, bounded by the arrival count (no
/// sleeps, no unbounded wait).
#[test]
fn background_retraining_publishes_without_stalling() {
    let workload = drift_workload();
    let epoch0 = workload.epoch_arrivals(0);
    let boot = StreamPrefix::from_stream(Stream::from_arrivals(epoch0[..1_000].to_vec()));
    let initial = OptHashBuilder::new(32)
        .lambda(1.0)
        .solver(bcd_warm())
        .train(&boot);
    let mut retrainer = Retrainer::new(
        initial,
        EngineConfig::with_shards(2),
        RetrainConfig {
            window: 1_000,
            retrain_interval: 500,
            min_distinct: 16,
            background: true,
        },
    );
    for epoch in 0..workload.config().epochs {
        for element in &workload.epoch_arrivals(epoch) {
            retrainer.ingest(element).expect("background ingest");
        }
    }
    // Deterministically drain whatever solve is still in flight.
    retrainer.retrain_now().expect("final synchronous retrain");
    assert!(retrainer.scheme_version() >= 1, "a swap must have landed");
    assert_eq!(retrainer.retrain_stats().failed, 0);
    assert_eq!(retrainer.engine_stats().unaccounted_mass(), 0);
    retrainer.finish().expect("clean finish");
}

/// Two synchronous retrainers fed identical arrivals publish identical
/// schemes. The window prefix lists IDs in ascending order; built in the
/// window map's per-map random order instead, BCD's initial assignment (and
/// the equal-count shortcut's tie order) would differ between the two.
#[test]
fn identical_arrivals_retrain_identical_schemes() {
    let workload = DriftingWorkload::new(DriftConfig {
        universe: 2_000,
        exponent: 1.1,
        epoch_len: 10_000,
        epochs: 2,
        rotation: 500,
        seed: 101,
    });
    let mut arrivals = workload.arrivals();
    arrivals.truncate(12_000);
    let window = 4_096;
    let boot = StreamPrefix::from_stream(Stream::from_arrivals(arrivals[..window].to_vec()));
    let initial = OptHashBuilder::new(32)
        .lambda(1.0)
        .solver(bcd_warm())
        .train(&boot);
    let retrained = || {
        let mut retrainer = Retrainer::new(
            initial.clone(),
            EngineConfig::with_shards(2),
            RetrainConfig {
                window,
                retrain_interval: usize::MAX,
                min_distinct: 16,
                background: false,
            },
        );
        retrainer.ingest_slice(&arrivals).expect("ingest");
        assert!(retrainer.retrain_now().expect("retrain"), "window is full");
        retrainer
    };
    let (mut a, mut b) = (retrained(), retrained());

    // More distinct window counts than buckets: the re-solve is a descent,
    // warm-started from the incumbent.
    let solved = a.scheme().solver_stats().clone();
    assert!(solved.warm_started && !solved.proven_optimal);
    assert_eq!(
        a.scheme().estimator.stats().objective.to_bits(),
        b.scheme().estimator.stats().objective.to_bits()
    );
    for id in 0..2_000u64 {
        let element = StreamElement::without_features(id);
        let (x, y) = (a.query(&element).unwrap(), b.query(&element).unwrap());
        assert_eq!(x.to_bits(), y.to_bits(), "id {id}: {x} vs {y}");
    }
    a.finish().expect("clean finish");
    b.finish().expect("clean finish");
}
