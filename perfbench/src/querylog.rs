//! `querylog`: the paper's Section 7 protocol through the ingest engine.
//!
//! `OptHash` is trained on day 0 of the synthetic query log (DP solver,
//! λ = 1, random-forest classifier, 4 KB at c = 0.3). One producer replays
//! the remaining days through `IngestEngine<OptHash>` in a closed loop, one
//! `ingest_batch` per day and a `flush` per pass, for the whole run. One
//! reader queries a `SnapshotReader` open-loop at a fixed rate; most IDs it
//! draws are unseen, so most reads go through the classifier.

use crate::stats::{self, chunked_percentile, per_call_s, percentile, secs, sorted, Tracer};
use crate::{
    mix64, precise_timers, repeated_setup, replica_seed, timed, wait_until, Opts, Outcome, Scale,
    INPUT_REPLICAS,
};
use opthash_repro::ml::{Dataset, TextFeaturizer};
use opthash_repro::prelude::*;
use opthash_repro::solver::kmedian;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

struct Params {
    queries: usize,
    days: usize,
    per_day: usize,
    budget_kb: f64,
    reads_per_s: f64,
}

impl Params {
    fn of(scale: Scale) -> Params {
        match scale {
            Scale::Full => Params {
                queries: 30_000,
                days: 40,
                per_day: 15_000,
                budget_kb: 4.0,
                reads_per_s: 20_000.0,
            },
            Scale::Smoke => Params {
                queries: 2_000,
                days: 4,
                per_day: 2_000,
                budget_kb: 1.2,
                reads_per_s: 2_000.0,
            },
        }
    }
}

/// Generated inputs; never timed.
struct Inputs {
    day0: Vec<(ElementId, String, u64)>,
    /// Days 1.. as feature-less arrivals, one slice per day.
    replay: Vec<Vec<StreamElement>>,
    /// True counts over every day, day 0 included.
    truth: FrequencyVector,
    texts: Vec<String>,
    /// Seeded shuffle of the universe: the reader's query order.
    read_order: Vec<usize>,
}

impl Inputs {
    fn generate(p: &Params, seed: u64) -> Inputs {
        let log = QueryLogDataset::generate(QueryLogConfig {
            num_queries: p.queries,
            days: p.days,
            arrivals_per_day: p.per_day,
            zipf_exponent: 1.0,
            seed,
        });
        let replay: Vec<Vec<StreamElement>> = (1..p.days)
            .map(|day| {
                log.day_stream(day)
                    .iter()
                    .map(|e| StreamElement::without_features(e.id))
                    .collect()
            })
            .collect();
        let mut read_order: Vec<usize> = (0..log.num_queries()).collect();
        shuffle(&mut read_order, seed);
        Inputs {
            day0: log.first_day_counts(),
            truth: log.cumulative_counts(p.days - 1),
            texts: log.query_texts().to_vec(),
            replay,
            read_order,
        }
    }

    fn arrivals_per_pass(&self) -> usize {
        self.replay.iter().map(Vec::len).sum()
    }
}

/// Fisher–Yates with a splitmix64 stream, so the order depends on the seed
/// alone.
fn shuffle(items: &mut [usize], seed: u64) {
    let mut state = seed ^ 0x5DEE_CE66_D1CE_B00C;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(state)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

struct Trained {
    featurizer: TextFeaturizer,
    opt: OptHash,
}

/// Everything a measured phase reads.
struct Ctx<'a> {
    p: &'a Params,
    inputs: &'a Inputs,
    trained: &'a Trained,
    queries: &'a [StreamElement],
    opts: &'a Opts,
}

impl Ctx<'_> {
    fn engine(&self) -> IngestEngine<OptHash> {
        IngestEngine::new(
            self.trained.opt.clone(),
            EngineConfig::with_shards(self.opts.nproc),
        )
    }
}

fn split(p: &Params) -> (usize, usize) {
    let (stored, buckets) = SpaceBudget::from_kb(p.budget_kb).opt_hash_split(0.3);
    (stored.max(2), buckets.max(2))
}

fn featurize(inputs: &Inputs) -> (TextFeaturizer, Vec<(StreamElement, u64)>) {
    let featurizer = TextFeaturizer::fit(inputs.day0.iter().map(|(_, t, _)| t.as_str()), 500);
    let pairs = inputs
        .day0
        .iter()
        .map(|(id, text, count)| (StreamElement::new(*id, featurizer.transform(text)), *count))
        .collect();
    (featurizer, pairs)
}

/// The timed set-up: featurize day 0, build the prefix, train, build the
/// engine. Spans go to `tracer`, with the solver and classifier times taken
/// from the trained estimator's own statistics.
fn setup(
    p: &Params,
    inputs: &Inputs,
    seed: u64,
    shards: usize,
    tracer: &mut Tracer,
) -> (Trained, IngestEngine<OptHash>) {
    let (featurizer, pairs) = tracer.span("ml.featurize", || featurize(inputs));
    let prefix = tracer.span("stream.prefix_build", || StreamPrefix::from_counts(pairs));
    let (stored, buckets) = split(p);
    let opt = OptHashBuilder::new(buckets)
        .lambda(1.0)
        .solver(SolverKind::Dp)
        .classifier(ClassifierKind::RandomForest)
        .max_stored_elements(stored)
        .seed(seed)
        .train(&prefix);
    tracer.record("core.estimator_solver", opt.stats().solver_time);
    tracer.record("core.estimator_classifier", opt.stats().classifier_time);
    let engine = tracer.span("engine.build", || {
        IngestEngine::new(opt.clone(), EngineConfig::with_shards(shards))
    });
    (Trained { featurizer, opt }, engine)
}

/// What one measured phase observed.
struct Phase {
    pass_s: Vec<f64>,
    call_ms: Vec<f64>,
    read_us: Vec<f64>,
    read_late_us: Vec<f64>,
    passes: u64,
    errors: ErrorMetrics,
}

impl Phase {
    /// Median over passes of arrivals per second, first `ingest_batch` to
    /// `flush` return.
    fn ingest_per_s(&self, inputs: &Inputs) -> f64 {
        let per_pass = inputs.arrivals_per_pass() as f64;
        let rates: Vec<f64> = self.pass_s.iter().map(|s| per_pass / s).collect();
        stats::median(&rates)
    }
}

/// Ingests passes over the replay until `duration` has elapsed while the
/// reader queries open-loop; checks the engine against sequential replay.
fn measure(
    ctx: &Ctx,
    engine: &mut IngestEngine<OptHash>,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Phase {
    let Ctx {
        p,
        inputs,
        trained,
        queries,
        opts,
    } = *ctx;
    let reader = engine.snapshot_reader();
    let stop = AtomicBool::new(false);
    let interval = Duration::from_secs_f64(1.0 / p.reads_per_s);
    let per_pass = inputs.arrivals_per_pass() as u64;
    let mut phase = Phase {
        pass_s: Vec::new(),
        call_ms: Vec::new(),
        read_us: Vec::new(),
        read_late_us: Vec::new(),
        passes: 0,
        errors: ErrorMetrics::new(),
    };
    let start = Instant::now();
    let deadline = start + opts.duration;
    let (read_us, read_late_us) = std::thread::scope(|s| {
        let reader_thread = s.spawn(|| {
            let mut latency = Vec::new();
            let mut lateness = Vec::new();
            let mut i = 0usize;
            precise_timers();
            while !stop.load(Ordering::Relaxed) {
                let due = start + interval * i as u32;
                wait_until(due);
                let issued = Instant::now();
                let element = &queries[inputs.read_order[i % inputs.read_order.len()]];
                black_box(reader.query(black_box(element)).estimate);
                let done = Instant::now();
                latency.push(secs(done - due) * 1e6);
                lateness.push(secs(issued - due) * 1e6);
                i += 1;
            }
            (latency, lateness)
        });
        loop {
            let pass_start = Instant::now();
            for day in &inputs.replay {
                let call = Instant::now();
                let result = engine.ingest_batch(day);
                let took = call.elapsed();
                tracer.record("engine.ingest_call", took);
                phase.call_ms.push(secs(took) * 1e3);
                out.attempted += day.len() as u64;
                if result.is_err() {
                    out.failed += day.len() as u64;
                }
            }
            let flush = Instant::now();
            if engine.flush().is_err() {
                out.failed += 1;
            }
            tracer.record("engine.flush", flush.elapsed());
            phase.pass_s.push(secs(pass_start.elapsed()));
            phase.passes += 1;
            if phase.passes == 1 {
                phase.errors = first_pass_checks(inputs, trained, queries, engine, out);
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        reader_thread.join().expect("reader thread panicked")
    });
    phase.read_us = read_us;
    phase.read_late_us = read_late_us;
    out.attempted += phase.read_us.len() as u64;

    // After every pass: the engine equals a sequential replay of all passes.
    let mut sequential = trained.opt.clone();
    for day in &inputs.replay {
        for element in day {
            sequential.add(element, phase.passes);
        }
    }
    out.check(
        identical(engine, &sequential, queries),
        format!(
            "querylog: engine estimates differ from sequential replay after {} passes",
            phase.passes
        ),
    );
    let engine_stats = engine.stats();
    out.check(
        engine_stats.unaccounted_mass() == 0,
        format!(
            "querylog: unaccounted mass {} after flush",
            engine_stats.unaccounted_mass()
        ),
    );
    out.check(
        engine_stats.ingested_elements() == per_pass * phase.passes,
        "querylog: engine did not admit every arrival",
    );
    phase
}

/// After the first pass: the paper's two error metrics over every ID with a
/// non-zero true count, and bit-identity against a sequential replay.
fn first_pass_checks(
    inputs: &Inputs,
    trained: &Trained,
    queries: &[StreamElement],
    engine: &mut IngestEngine<OptHash>,
    out: &mut Outcome,
) -> ErrorMetrics {
    let mut sequential = trained.opt.clone();
    for day in &inputs.replay {
        for element in day {
            sequential.add(element, 1);
        }
    }
    out.check(
        identical(engine, &sequential, queries),
        "querylog: engine estimates differ from sequential replay after one pass",
    );
    let mut errors = ErrorMetrics::new();
    for (id, count) in inputs.truth.iter() {
        let estimate = engine
            .query_synced(&queries[id.raw() as usize])
            .unwrap_or(f64::NAN);
        errors.observe(count as f64, estimate);
    }
    errors
}

fn identical(
    engine: &mut IngestEngine<OptHash>,
    sequential: &OptHash,
    queries: &[StreamElement],
) -> bool {
    queries.iter().all(|element| {
        engine
            .query_synced(element)
            .is_ok_and(|e| e.to_bits() == sequential.estimate(element).to_bits())
    })
}

/// One input replica: the set-up, timed, and a single pass on inputs from
/// `seed`, checked and scored like the measured run's first pass.
fn replica(p: &Params, seed: u64, opts: &Opts, out: &mut Outcome) -> (f64, ErrorMetrics) {
    let inputs = Inputs::generate(p, seed);
    let (setup_s, (trained, mut engine)) =
        timed(|| setup(p, &inputs, seed, opts.nproc, &mut Tracer::new(false)));
    let queries = universe_queries(&inputs, &trained.featurizer);
    for day in &inputs.replay {
        out.attempted += day.len() as u64;
        if engine.ingest_batch(day).is_err() {
            out.failed += day.len() as u64;
        }
    }
    if engine.flush().is_err() {
        out.failed += 1;
    }
    let errors = first_pass_checks(&inputs, &trained, &queries, &mut engine, out);
    drop(engine.finish());
    (setup_s, errors)
}

/// Every universe query with its text features, as a client would send it.
fn universe_queries(inputs: &Inputs, featurizer: &TextFeaturizer) -> Vec<StreamElement> {
    inputs
        .texts
        .iter()
        .enumerate()
        .map(|(id, text)| StreamElement::new(id as u64, featurizer.transform(text)))
        .collect()
}

/// Runs the workload: see the module docs.
pub(crate) fn run(opts: &Opts) -> Outcome {
    let p = Params::of(opts.scale);
    let inputs = Inputs::generate(&p, opts.seed);
    let mut out = Outcome::default();
    let (mut setup_times, (trained, mut engine)) = repeated_setup(
        3,
        || timed(|| setup(&p, &inputs, opts.seed, opts.nproc, &mut Tracer::new(false))),
        |(_, engine)| drop(engine.finish()),
    );
    let queries = universe_queries(&inputs, &trained.featurizer);
    let ctx = Ctx {
        p: &p,
        inputs: &inputs,
        trained: &trained,
        queries: &queries,
        opts,
    };
    let phase = measure(&ctx, &mut engine, &mut Tracer::new(false), &mut out);
    drop(engine.finish());
    let ingest_per_s = phase.ingest_per_s(&inputs);
    let p50 = percentile(&sorted(phase.read_us.clone()), 0.50);
    let p99 = chunked_percentile(&phase.read_us, 0.99);
    let call_p99 = chunked_percentile(&phase.call_ms, 0.99);
    out.set("ingest_per_s", ingest_per_s);
    out.set("tail.ingest_ms", call_p99.value);
    out.set("query_p50_us", p50.value);
    out.set("tail.query_us", p99.value);
    let mut avg = vec![phase.errors.average_absolute_error()];
    let mut expected = vec![phase.errors.expected_absolute_error()];
    for r in 1..INPUT_REPLICAS {
        let (setup_s, errors) = replica(&p, replica_seed(opts.seed, r), opts, &mut out);
        setup_times.push(setup_s);
        avg.push(errors.average_absolute_error());
        expected.push(errors.expected_absolute_error());
    }
    let setup_s = stats::median(&setup_times);
    out.set("setup_s", setup_s);
    out.set("avg_abs_error", stats::median(&avg));
    out.set("expected_abs_error", stats::median(&expected));
    let late = sorted(phase.read_late_us.clone());
    out.note(format!(
        "querylog: {} passes of {} arrivals, {} reads (p99: {} beyond per chunk), {} ingest \
         calls (p99: {} beyond per chunk); reader lateness p50 {:.2} us, p99 {:.2} us",
        phase.passes,
        inputs.arrivals_per_pass(),
        phase.read_us.len(),
        p99.beyond,
        phase.call_ms.len(),
        call_p99.beyond,
        percentile(&late, 0.5).value,
        percentile(&late, 0.99).value,
    ));
    if !p99.supported() || !call_p99.supported() {
        out.note("querylog: WARNING a reported p99 has fewer than 10 samples beyond it");
    }
    if opts.trace {
        trace(&ctx, setup_s, ingest_per_s, &mut out);
    }
    out
}

/// The traced run: a second measured phase with spans on, then the layer
/// calls timed one by one on the same inputs.
fn trace(ctx: &Ctx, untraced_setup_s: f64, untraced_ingest_per_s: f64, out: &mut Outcome) {
    let Ctx {
        p,
        inputs,
        trained,
        queries,
        opts,
    } = *ctx;
    let mut tracer = Tracer::new(true);
    let (traced_setup_s, (traced, engine)) =
        timed(|| setup(p, inputs, opts.seed, opts.nproc, &mut tracer));
    drop(engine.finish());
    let on_path: f64 = [
        "ml.featurize",
        "stream.prefix_build",
        "core.estimator_solver",
        "core.estimator_classifier",
        "engine.build",
    ]
    .iter()
    .map(|name| tracer.get(name).total_s())
    .sum();
    out.set("trace.setup_coverage", on_path / traced_setup_s);
    out.set("engine.build_s", tracer.get("engine.build").total_s());
    let stats = traced.opt.stats();
    out.set("core.estimator_solver_s", secs(stats.solver_time));
    out.set("core.estimator_classifier_s", secs(stats.classifier_time));

    // Set-up layers, called one by one on the same inputs.
    let (featurizer_s, (_, pairs)) = timed(|| featurize(inputs));
    let (stored, buckets) = split(p);
    let (prefix_s, sampled) =
        timed(|| StreamPrefix::from_counts(pairs).sample_by_frequency(stored, opts.seed));
    let problem = HashingProblem::new(sampled.frequencies_f64(), Vec::new(), buckets, 1.0);
    let (solve_s, solution) = timed(|| kmedian::solve_frequency_only(&problem));
    let dataset =
        Dataset::from_features(&sampled.features(), &solution.assignment).with_num_classes(buckets);
    let (fit_s, classifier) = timed(|| ClassifierKind::RandomForest.fit(&dataset, opts.seed));
    black_box(classifier);
    out.set("ml.featurize_s", featurizer_s);
    out.set("stream.prefix_build_s", prefix_s);
    out.set("solver.solve_ms", solve_s * 1e3);
    out.set("solver.solve_max_ms", solve_s * 1e3);
    out.set(
        "solver.moves_evaluated",
        solution.stats.moves_evaluated as f64,
    );
    out.set("ml.classifier_fit_s", fit_s);
    out.note(format!(
        "querylog: set-up {traced_setup_s:.4} s traced vs {untraced_setup_s:.4} s untraced; \
         isolated DP {solve_s:.4} s vs {:.4} s inside training, forest fit {fit_s:.4} s vs {:.4} s",
        secs(stats.solver_time),
        secs(stats.classifier_time),
    ));

    // Ingest layers: a traced measured phase.
    let mut engine = ctx.engine();
    let mut scratch = Outcome::default();
    let phase = measure(ctx, &mut engine, &mut tracer, &mut scratch);
    out.check_failures.extend(scratch.check_failures);
    let traced_ingest = phase.ingest_per_s(inputs);
    let calls = tracer.get("engine.ingest_call");
    let flushes = tracer.get("engine.flush");
    let engine_stats = engine.stats();
    out.set("engine.ingest_call_s", calls.total_s());
    out.set("engine.flush_s", flushes.total_s());
    out.set(
        "engine.aggregation_factor",
        engine_stats.aggregation_factor(),
    );
    out.set(
        "engine.applied_updates",
        engine_stats.applied_updates as f64,
    );
    out.set("engine.flushes", engine_stats.flushes as f64);
    out.set(
        "trace.run_coverage",
        (calls.total_s() + flushes.total_s()) / phase.pass_s.iter().sum::<f64>(),
    );
    out.set(
        "trace.overhead_pct",
        100.0 * (untraced_ingest_per_s - traced_ingest) / untraced_ingest_per_s,
    );
    let late = sorted(phase.read_late_us);
    out.set("gen.lateness_p99_us", percentile(&late, 0.99).value);

    // Per-arrival and per-read layer costs, one layer at a time.
    let arrivals: Vec<&StreamElement> = inputs.replay.iter().flatten().collect();
    let mut sequential = trained.opt.clone();
    out.set(
        "core.add_ns",
        1e9 * per_call_s(arrivals.len(), |i| {
            sequential.add(black_box(arrivals[i]), 1)
        }),
    );
    let opt = &trained.opt;
    let stored: Vec<&StreamElement> = queries.iter().filter(|q| opt.is_stored(q.id)).collect();
    let unseen: Vec<&StreamElement> = queries.iter().filter(|q| !opt.is_stored(q.id)).collect();
    // Stored IDs skip the forest, so the snapshot's own cost is not lost in
    // inference noise; cycle them to time enough calls.
    let calls = stored.len() * 100;
    let stored_ns = 1e9
        * per_call_s(calls, |i| {
            black_box(opt.estimate(black_box(stored[i % stored.len()])));
        });
    let predict_ns = 1e9
        * per_call_s(unseen.len(), |i| {
            black_box(opt.predict_bucket(black_box(&unseen[i].features)));
        });
    out.set("core.estimate_stored_ns", stored_ns);
    out.set("ml.predict_ns", predict_ns);
    let reader = engine.snapshot_reader();
    let order = &inputs.read_order;
    let snapshot_ns = 1e9
        * per_call_s(order.len(), |i| {
            black_box(reader.query(black_box(&queries[order[i]])).estimate);
        });
    let snapshot_stored_ns = 1e9
        * per_call_s(calls, |i| {
            black_box(reader.query(black_box(stored[i % stored.len()])).estimate);
        });
    out.set("engine.snapshot_query_ns", snapshot_ns);
    out.set(
        "engine.snapshot_assembly_ns",
        snapshot_stored_ns - stored_ns,
    );
    out.note(format!(
        "querylog: {} stored / {} unseen universe IDs",
        stored.len(),
        unseen.len()
    ));
    drop(engine.finish());
}
