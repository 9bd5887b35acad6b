//! Property-based tests of the ingest engine's merge algebra, sharding
//! invariants, and mass conservation through full queues, hot-swaps and
//! snapshot reads (with `--features failpoints`, also under injected
//! panics).

use opthash_repro::prelude::*;
use proptest::prelude::*;

/// Strategy for a stream of (id, weight) updates over a small universe.
fn weighted_updates(max_distinct: u64, max_len: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec(0u64..max_distinct, 1..max_len)
        .prop_map(|ids| ids.into_iter().map(|id| (id, 1 + id % 5)).collect())
}

/// Strategy for a Zipf-like skewed update sequence: low ids dominate, the
/// tail is long — the regime where pre-aggregation matters.
fn zipfish_updates(max_len: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec(0u64..1_000_000, 1..max_len).prop_map(|draws| {
        draws
            .into_iter()
            .map(|raw| {
                // Map a uniform draw to a heavy-headed rank: rank k gets
                // roughly 1/(k+1) of the draws.
                let rank = (1_000_000 / (raw + 1)).min(500);
                (rank, 1 + raw % 3)
            })
            .collect()
    })
}

fn apply<B: SketchBackend>(backend: &mut B, updates: &[(u64, u64)]) {
    for &(id, count) in updates {
        backend.ingest(&StreamElement::without_features(id), count);
    }
}

/// Feeds `ups` through an engine with depth-2 shard queues, so producers
/// block on full queues often, then checks the conservation contract: every
/// update is admitted, no admitted mass is unlocatable after a flush, and
/// the merged estimator equals the same backend fed the updates
/// sequentially.
fn check_blocking_conserves(ups: &[(u64, u64)], shards: usize, batch: usize) -> Result<(), String> {
    let backend = CountMinSketch::new(128, 4, 11);
    let mut engine = IngestEngine::new(
        backend.clone(),
        EngineConfig::with_shards(shards)
            .batch_capacity(batch)
            .queue_capacity(2),
    );
    for &(id, count) in ups {
        engine
            .ingest_weighted(&StreamElement::without_features(id), count)
            .map_err(|err| format!("unexpected error: {err}"))?;
    }
    engine.flush().expect("flush after clean ingest");
    let stats = engine.stats();
    prop_assert_eq!(stats.mass, ups.iter().map(|&(_, count)| count).sum::<u64>());
    prop_assert_eq!(
        stats.unaccounted_mass(),
        0,
        "admitted mass must be locatable after flush"
    );
    let mut sequential = backend;
    apply(&mut sequential, ups);
    for id in 0..520u64 {
        prop_assert_eq!(
            engine
                .query_synced(&StreamElement::without_features(id))
                .expect("query after clean ingest"),
            SketchBackend::query(&sequential, &StreamElement::without_features(id)),
            "diverged from sequential replay at id {}",
            id
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Merging shard deltas is associative for the linear Count-Min backend:
    /// ((base ⊕ a) ⊕ b) ⊕ c  ==  base ⊕ (a ⊕ (b ⊕ c)).
    #[test]
    fn count_min_merge_is_associative(
        ups_a in weighted_updates(300, 200),
        ups_b in weighted_updates(300, 200),
        ups_c in weighted_updates(300, 200),
        seed in 0u64..20,
    ) {
        let base = CountMinSketch::new(64, 3, seed);
        let mut shard_a = base.fork();
        let mut shard_b = base.fork();
        let mut shard_c = base.fork();
        apply(&mut shard_a, &ups_a);
        apply(&mut shard_b, &ups_b);
        apply(&mut shard_c, &ups_c);

        // Left-associated fold into the base.
        let mut left = base.clone();
        left.merge(&shard_a);
        left.merge(&shard_b);
        left.merge(&shard_c);

        // Right-associated fold: combine the shards first.
        let mut bc = shard_b.clone();
        bc.merge(&shard_c);
        let mut a_bc = shard_a.clone();
        a_bc.merge(&bc);
        let mut right = base.clone();
        right.merge(&a_bc);

        for id in 0..320u64 {
            prop_assert_eq!(
                left.query(ElementId(id)),
                right.query(ElementId(id)),
                "associativity broke at id {}", id
            );
        }
    }

    /// Merge order never matters either (commutativity of the shard fold).
    #[test]
    fn count_sketch_merge_is_commutative(
        ups_a in weighted_updates(200, 150),
        ups_b in weighted_updates(200, 150),
        seed in 0u64..20,
    ) {
        let base = CountSketch::new(128, 3, seed);
        let mut shard_a = base.fork();
        let mut shard_b = base.fork();
        apply(&mut shard_a, &ups_a);
        apply(&mut shard_b, &ups_b);

        let mut ab = base.clone();
        ab.merge(&shard_a);
        ab.merge(&shard_b);
        let mut ba = base.clone();
        ba.merge(&shard_b);
        ba.merge(&shard_a);

        for id in 0..220u64 {
            let probe = StreamElement::without_features(id);
            prop_assert_eq!(SketchBackend::query(&ab, &probe), SketchBackend::query(&ba, &probe));
        }
    }

    /// The engine gives identical answers regardless of shard count and
    /// batch capacity, for arbitrary update sequences.
    #[test]
    fn engine_is_invariant_to_shard_count_and_batching(
        ups in weighted_updates(400, 300),
        shards in 1usize..6,
        batch in 1usize..64,
    ) {
        let backend = CountMinSketch::new(128, 4, 11);
        let mut sequential = backend.clone();
        apply(&mut sequential, &ups);

        let mut engine = IngestEngine::new(
            backend,
            EngineConfig::with_shards(shards).batch_capacity(batch),
        );
        for &(id, count) in &ups {
            engine.ingest_weighted(&StreamElement::without_features(id), count).unwrap();
        }
        let merged = engine.finish().unwrap();
        for id in 0..420u64 {
            prop_assert_eq!(merged.query(ElementId(id)), sequential.query(ElementId(id)));
        }
    }

    /// Mass conservation when producers block on full queues: nothing is
    /// ever shed, and the result is exactly the sequential one.
    #[test]
    fn blocking_ingest_conserves_mass(
        ups in zipfish_updates(400),
        shards in 1usize..5,
        batch in 1usize..32,
    ) {
        check_blocking_conserves(&ups, shards, batch)?;
    }

    /// A scheme hot-swap ([`IngestEngine::swap_backend`]) must conserve
    /// mass for arbitrary interleavings of ingest, swap, and flush over
    /// depth-2 queues: zero admitted mass is unaccounted after each swap.
    #[test]
    fn hot_swap_conserves_mass(
        ups in zipfish_updates(300),
        shards in 1usize..5,
        batch in 1usize..16,
        swap_gap in 7usize..60,
    ) {
        let base = CountMinSketch::new(128, 4, 11);
        let mut engine = IngestEngine::new(
            base.clone(),
            EngineConfig::with_shards(shards)
                .batch_capacity(batch)
                .queue_capacity(2),
        );
        let mut swaps = 0u64;
        for (i, &(id, count)) in ups.iter().enumerate() {
            engine
                .ingest_weighted(&StreamElement::without_features(id), count)
                .map_err(|err| format!("unexpected error: {err}"))?;
            if (i + 1) % swap_gap == 0 {
                engine.swap_backend(base.clone()).expect("hot swap");
                swaps += 1;
                prop_assert_eq!(
                    engine.stats().unaccounted_mass(), 0,
                    "swap {} left mass unaccounted", swaps
                );
            } else if (i + 1) % (swap_gap * 2) == swap_gap / 2 {
                engine.flush().expect("interleaved flush");
            }
        }
        prop_assert_eq!(engine.scheme_version(), swaps);
        engine.flush().expect("final flush");
        prop_assert_eq!(engine.stats().unaccounted_mass(), 0);
    }

    /// For linear backends, migrating counts through the fork/merge
    /// machinery at a swap is **equivalent to rebuilding from the ledger**:
    /// every retired backend equals a fresh base replayed with exactly its
    /// segment's admitted updates, and the live engine equals a fresh base
    /// replayed with the updates admitted since the last swap.
    #[test]
    fn swap_migration_matches_ledger_rebuild(
        ups in weighted_updates(300, 250),
        shards in 1usize..5,
        batch in 1usize..16,
        swap_gap in 11usize..80,
    ) {
        let base = CountMinSketch::new(128, 4, 11);
        let mut engine = IngestEngine::new(
            base.clone(),
            EngineConfig::with_shards(shards).batch_capacity(batch),
        );
        // The "ledger": admitted updates, segmented at each swap point.
        let mut segments: Vec<Vec<(u64, u64)>> = vec![Vec::new()];
        let mut retired_backends = Vec::new();
        for (i, &(id, count)) in ups.iter().enumerate() {
            engine.ingest_weighted(&StreamElement::without_features(id), count).unwrap();
            segments.last_mut().unwrap().push((id, count));
            if (i + 1) % swap_gap == 0 {
                retired_backends.push(engine.swap_backend(base.clone()).expect("hot swap"));
                segments.push(Vec::new());
            }
        }
        let live = engine.finish().unwrap();
        let rebuilt: Vec<CountMinSketch> = segments
            .iter()
            .map(|segment| {
                let mut reference = base.clone();
                apply(&mut reference, segment);
                reference
            })
            .collect();
        for id in 0..320u64 {
            let probe = StreamElement::without_features(id);
            for (k, (retired, reference)) in
                retired_backends.iter().zip(&rebuilt).enumerate()
            {
                prop_assert_eq!(
                    SketchBackend::query(retired, &probe),
                    SketchBackend::query(reference, &probe),
                    "retired backend {} diverged from its ledger rebuild at id {}", k, id
                );
            }
            prop_assert_eq!(
                SketchBackend::query(&live, &probe),
                SketchBackend::query(rebuilt.last().unwrap(), &probe),
                "live engine diverged from the post-swap ledger rebuild at id {}", id
            );
        }
    }

    /// Wait-free snapshot reads stay coherent through **arbitrary
    /// interleavings** of ingest, hot-swap, flush, and snapshot queries
    /// over depth-2 queues:
    ///
    /// * between operations the stamp's scheme version always equals the
    ///   engine's — a snapshot never observes a torn mix of schemes;
    /// * the stamp never accounts more mass than was admitted since the
    ///   last swap, and (Count-Min being monotone in its counters) the
    ///   snapshot estimate never exceeds the sequential replay of the
    ///   current segment;
    /// * immediately after a flush the wait-free path agrees with the
    ///   barrier path *exactly*, and the stamp accounts for the whole
    ///   segment;
    /// * interleaved snapshot reads perturb nothing: no admitted mass goes
    ///   unaccounted.
    #[test]
    fn snapshot_reads_stay_coherent_through_arbitrary_interleavings(
        ups in zipfish_updates(300),
        shards in 1usize..5,
        batch in 1usize..16,
        swap_gap in 9usize..50,
        flush_gap in 5usize..23,
    ) {
        let base = CountMinSketch::new(128, 4, 11);
        let mut engine = IngestEngine::new(
            base.clone(),
            EngineConfig::with_shards(shards)
                .batch_capacity(batch)
                .queue_capacity(2),
        );
        let reader = engine.snapshot_reader();
        let probes: [u64; 5] = [0, 1, 7, 13, 101];
        // Sequential replay of the updates admitted since the last swap.
        let mut segment = base.clone();
        let mut segment_mass = 0u64;
        for (i, &(id, count)) in ups.iter().enumerate() {
            engine
                .ingest_weighted(&StreamElement::without_features(id), count)
                .map_err(|err| format!("unexpected error: {err}"))?;
            segment.ingest(&StreamElement::without_features(id), count);
            segment_mass += count;
            // A snapshot between any two operations: one coherent scheme,
            // bounded mass, bounded estimates.
            let answer = reader.query(&StreamElement::without_features(id));
            prop_assert_eq!(
                answer.stamp.scheme_version,
                engine.scheme_version(),
                "snapshot observed a scheme the engine is not on"
            );
            prop_assert!(
                answer.stamp.mass_accounted <= segment_mass,
                "stamp accounts {} of only {} admitted units this segment",
                answer.stamp.mass_accounted, segment_mass
            );
            prop_assert!(
                answer.estimate
                    <= SketchBackend::query(&segment, &StreamElement::without_features(id)),
                "a partial snapshot over-estimated beyond the full segment replay"
            );
            if (i + 1) % flush_gap == 0 {
                engine.flush().expect("interleaved flush");
                for &p in &probes {
                    let probe = StreamElement::without_features(p);
                    prop_assert_eq!(
                        engine.query(&probe).estimate,
                        engine.query_synced(&probe).expect("synced query"),
                        "read paths disagree after a flush at op {}", i
                    );
                }
                prop_assert_eq!(engine.snapshot_stamp().mass_accounted, segment_mass);
            }
            if (i + 1) % swap_gap == 0 {
                engine.swap_backend(base.clone()).expect("hot swap");
                segment = base.clone();
                segment_mass = 0;
                let stamp = engine.snapshot_stamp();
                prop_assert_eq!(stamp.scheme_version, engine.scheme_version());
                prop_assert_eq!(
                    stamp.mass_accounted, 0,
                    "a fresh scheme starts with nothing accounted"
                );
            }
        }
        engine.flush().expect("final flush");
        prop_assert_eq!(engine.stats().unaccounted_mass(), 0);
        for &p in &probes {
            let probe = StreamElement::without_features(p);
            prop_assert_eq!(
                engine.query(&probe).estimate,
                SketchBackend::query(&segment, &probe),
                "final snapshot diverged from the segment replay at id {}", p
            );
        }
    }

    /// The re-trainer trains on exactly the last `window` arrivals, before
    /// the window fills and after it wraps: a forced re-train publishes the
    /// incumbent re-solved on a reference prefix of those arrivals in
    /// ascending ID order, bit for bit.
    #[test]
    fn retrainer_trains_on_exactly_the_last_window_arrivals(
        ids in prop::collection::vec(0u64..48, 1..300),
        window in 1usize..65,
        interval in 16usize..400,
    ) {
        let initial = OptHashBuilder::new(4)
            .lambda(1.0)
            .train_on_stream(&Stream::from_ids((0..200u64).map(|i| i % 8)));
        let mut retrainer = Retrainer::new(
            initial,
            EngineConfig::with_shards(2),
            RetrainConfig {
                window,
                retrain_interval: interval,
                min_distinct: 1,
                background: false,
            },
        );
        for &id in &ids {
            retrainer
                .ingest(&StreamElement::without_features(id))
                .expect("clean ingest");
        }
        let before = retrainer.scheme();
        prop_assert!(retrainer.retrain_now().expect("clean retrain"));

        let mut counts = std::collections::BTreeMap::new();
        for &id in &ids[ids.len().saturating_sub(window)..] {
            *counts.entry(id).or_insert(0u64) += 1;
        }
        let reference = StreamPrefix::from_counts(
            counts
                .into_iter()
                .map(|(id, count)| (StreamElement::without_features(id), count))
                .collect(),
        );
        let expected = before.estimator.retrain(&reference);
        let live = retrainer.scheme();
        prop_assert_eq!(
            live.estimator.solution().objective.to_bits(),
            expected.solution().objective.to_bits()
        );
        for id in 0..48u64 {
            let probe = StreamElement::without_features(id);
            prop_assert_eq!(
                live.estimator.estimate(&probe).to_bits(),
                expected.estimate(&probe).to_bits(),
                "estimate diverged at id {}", id
            );
        }
        retrainer.finish().expect("clean finish");
    }
}

/// Conservation must also survive *panics injected mid-application*: a
/// caught batch panic is retried on a fresh copy of the shard's committed
/// snapshot, so the final answers and counts are exactly those of a clean
/// run.
#[cfg(feature = "failpoints")]
mod under_injected_panics {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn mass_is_conserved_through_batch_panics(
            ups in zipfish_updates(300),
            shards in 1usize..4,
            panic_hit in 0u64..40,
        ) {
            let backend = CountMinSketch::new(128, 4, 11);
            let mut engine = IngestEngine::new(
                backend.clone(),
                EngineConfig::with_shards(shards)
                    .batch_capacity(8)
                    .queue_capacity(2),
            );
            // One one-shot panic somewhere along the apply path: the batch
            // must be retried, not lost, so the run stays exact.
            engine
                .fault_injector()
                .program("worker::apply", FaultPlan::panic().after(panic_hit).times(1));
            for &(id, count) in &ups {
                engine
                    .ingest_weighted(&StreamElement::without_features(id), count)
                    .map_err(|err| format!("unexpected error: {err}"))?;
            }
            engine.flush().expect("panic-isolated flush");
            let stats = engine.stats();
            prop_assert_eq!(stats.unaccounted_mass(), 0);
            prop_assert_eq!(stats.quarantined_mass, 0, "one panic never quarantines");
            let mut sequential = backend;
            apply(&mut sequential, &ups);
            for id in 0..520u64 {
                prop_assert_eq!(
                    engine.query_synced(&StreamElement::without_features(id)).unwrap(),
                    SketchBackend::query(&sequential, &StreamElement::without_features(id))
                );
            }
        }
    }
}
